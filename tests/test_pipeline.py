import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mr2ct.pipeline as pipeline_module
from mr2ct import (
    ConfigError,
    DataError,
    FeatureLayoutError,
    MixtureModel,
    ModelError,
    RunConfig,
    Volume,
    generate_phantom,
    load_model,
    predict_ct,
    save_model,
    train_pipeline,
)
from mr2ct.boosting import BoostedEnsemble, Learner
from mr2ct.config import load_run_config
from mr2ct.features import FeatureLayout
from mr2ct.mixture import conditional_expectation_many
from mr2ct.pipeline import PipelineModel, model_from_dict, model_to_dict
from mr2ct.tree import train_tree
from mr2ct.volume import FLOAT32_MAX

from conftest import fast_config
from util import random_mixture


class TestConfig:
    def test_default_grid_includes_five_and_six(self):
        grid = RunConfig().j_candidates
        assert 5 in grid and 6 in grid

    def test_roundtrip(self, tmp_path):
        """The manifest's config dump, written as a config file, loads back equal."""
        cfg = fast_config(j_candidates=(3,), em_tol=1e-7)
        lines = [f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                 for k, v in asdict(cfg).items()]
        (tmp_path / "run.cfg").write_text("".join(lines))
        assert load_run_config(tmp_path / "run.cfg") == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(j_candidates=())
        with pytest.raises(ConfigError):
            RunConfig(j_candidates=(5, 0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 1e39])
    def test_fill_must_be_finite_in_float32(self, fill):
        with pytest.raises(ConfigError, match="fill_hu"):
            RunConfig(fill_hu=fill)

    def test_order_checked_on_construction(self):
        with pytest.raises(ConfigError, match="order"):
            RunConfig(order="third")


class TestTrain:
    def test_report_contents(self, small_datasets):
        model, report = train_pipeline(small_datasets, fast_config())
        assert len(model.selected_j) == 2
        assert all(j in (1, 2) for j in model.selected_j)
        assert len(report.selection) == 2
        for sel in report.selection:
            assert len(sel.scores) == 2
        assert report.classifier_training_error <= 0.05
        assert report.label_counts[1] > 0

    def test_training_routes_no_second_vote(self, small_datasets, monkeypatch):
        """The training error comes from boosting's running vote: training
        never scores the finished ensemble again."""
        calls = []
        scores = BoostedEnsemble.scores

        def scores_spy(self, x, n_learners=None):
            calls.append(x.shape)
            return scores(self, x, n_learners)

        monkeypatch.setattr(BoostedEnsemble, "scores", scores_spy)
        _, report = train_pipeline(small_datasets, fast_config(trees=2))
        assert calls == []
        assert report.classifier_training_error == report.boost_rounds[-1].train_error

    def test_needs_two_patients(self, small_datasets):
        with pytest.raises(DataError, match="two patients"):
            train_pipeline(small_datasets[:1], fast_config())

    def test_duplicate_ids_rejected(self, small_datasets):
        with pytest.raises(DataError, match="duplicate"):
            train_pipeline([small_datasets[0], small_datasets[0]], fast_config())

    def test_seed_determinism_bytes(self, small_datasets, tmp_path):
        cfg = fast_config(seed=3)
        model_a, _ = train_pipeline(small_datasets, cfg)
        model_b, _ = train_pipeline(small_datasets, cfg)
        save_model(model_a, tmp_path / "a.json")
        save_model(model_b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_changes_model(self, small_datasets, tmp_path):
        model_a, _ = train_pipeline(small_datasets, fast_config(seed=3))
        model_b, _ = train_pipeline(small_datasets, fast_config(seed=4))
        save_model(model_a, tmp_path / "a.json")
        save_model(model_b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()

    def test_patient_order_invariance(self, small_datasets):
        cfg = fast_config(seed=1)
        model_a, _ = train_pipeline(small_datasets, cfg)
        model_b, _ = train_pipeline(list(reversed(small_datasets)), cfg)
        assert json.dumps(model_to_dict(model_a)) == json.dumps(model_to_dict(model_b))

    def test_seed_comes_from_config(self, small_datasets):
        model, report = train_pipeline(small_datasets, fast_config(trees=1, seed=5))
        assert model.seed == report.seed == 5


@pytest.fixture(scope="module")
def trained(small_datasets):
    model, _ = train_pipeline(small_datasets[:2], fast_config())
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
        assert np.all(result.ct.data == trained.fill_hu)
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
        dim = trained.regressors[0].dim
        other = MixtureModel(
            weights=[1.0],
            means=np.full((1, dim), 77.0),
            covariances=(100.0 * np.eye(dim))[None],
        )
        patched = PipelineModel(
            classifier=trained.classifier,
            regressors=(other, trained.regressors[1]),
            fill_hu=trained.fill_hu,
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
        from mr2ct import oracle_predict_ct

        base, _ = train_pipeline(small_datasets[:2], fast_config())
        truth_model = PipelineModel(
            classifier=base.classifier,
            regressors=small_spec.class_models,
            fill_hu=base.fill_hu,
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
            model, _ = train_pipeline(datasets[:2], fast_config(seed=seed))
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
        model, _ = train_pipeline(small_datasets[:2], fast_config())
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        held = small_datasets[2]
        a = predict_ct(model, held.mr_channels, held.mask)
        b = predict_ct(back, held.mr_channels, held.mask)
        np.testing.assert_array_equal(a.ct.data, b.ct.data)
        np.testing.assert_array_equal(a.labels.data, b.labels.data)
        assert back.selected_j == model.selected_j

    def test_regressor_dims_must_match_layout(self, trained):
        short = random_mixture(1, trained.layout.n_channels, np.random.default_rng(0))
        with pytest.raises(ModelError, match="layout needs"):
            replace(trained, regressors=(short, trained.regressors[1]))

    def test_kind_checked(self, small_datasets):
        model, _ = train_pipeline(small_datasets[:2], fast_config())
        d = model_to_dict(model)
        d["kind"] = "something-else"
        from mr2ct.errors import ModelError

        with pytest.raises(ModelError):
            model_from_dict(d)

    @pytest.mark.parametrize("edit", [
        lambda d: d["classifier"].update(rounds=[]),
        lambda d: d["classifier"]["learners"][0].update(stale=1),
        lambda d: d["classifier"]["learners"][0]["tree"]["confidence"].__setitem__(0, [0.5, 0.5]),
        lambda d: d["classifier"]["learners"][0].update(alpha="0.5"),
        lambda d: d.update(seed="3"),
        lambda d: d["classifier"].update(n_labels=2.7),
    ], ids=["stale-classifier-key", "stale-learner-key", "split-node-confidence",
            "alpha-string", "seed-string", "n-labels-fraction"])
    def test_dict_must_save_back(self, trained, edit):
        """A dict that builds a model but is not the dict that model saves is
        rejected without the loader's text check."""
        d = json.loads(_bundle_text(trained))
        assert model_to_dict(model_from_dict(d)) == d
        assert d["classifier"]["learners"][0]["tree"]["feature"][0] != -1
        edit(d)
        with pytest.raises(ModelError, match="does not save back"):
            model_from_dict(d)


def _bundle_text(model):
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_channels=st.integers(1, 3),
    order=st.sampled_from(["first", "second"]),
    n_trees=st.integers(1, 3),
    components=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    fill_hu=st.floats(-FLOAT32_MAX, FLOAT32_MAX),
)
def test_bundle_roundtrip_property(seed, n_channels, order, n_trees, components, fill_hu):
    """Any valid model survives its bundle: same bytes, same arrays, same
    predictions."""
    rng = np.random.default_rng(seed)
    layout = FeatureLayout(n_channels=n_channels, order=order)
    learners = []
    for _ in range(n_trees):
        x = rng.normal(size=(40, layout.n_combined))
        labels = np.arange(40) % 2
        tree = train_tree(x, labels, config=RunConfig(max_splits=4, min_leaf=1), n_labels=2)
        learners.append(Learner(tree=tree, alpha=float(rng.uniform(0.01, 1.0))))
    model = PipelineModel(
        classifier=BoostedEnsemble(
            learners=tuple(learners), n_labels=2, n_features=layout.n_combined
        ),
        regressors=tuple(random_mixture(j, n_channels + 1, rng) for j in components),
        fill_hu=fill_hu,
        layout=layout,
        seed=int(rng.integers(1000)),
        selected_j=components,
    )
    text = _bundle_text(model)
    back = model_from_dict(json.loads(text))
    assert _bundle_text(back) == text
    assert (back.fill_hu, back.layout, back.seed, back.selected_j) == (
        model.fill_hu, model.layout, model.seed, model.selected_j
    )
    for a, b in zip(model.classifier.learners, back.classifier.learners, strict=True):
        assert a.alpha == b.alpha
        for name in ("feature", "threshold", "left", "confidence"):
            np.testing.assert_array_equal(getattr(a.tree, name), getattr(b.tree, name))
    for a, b in zip(model.regressors, back.regressors, strict=True):
        for name in ("weights", "means", "covariances"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    dims = (5, 4, 3)
    channels = [
        Volume(dims=dims, spacing=(1.0, 1.0, 1.0), data=rng.normal(size=60))
        for _ in range(n_channels)
    ]
    mask = Volume(dims=dims, spacing=(1.0, 1.0, 1.0), data=rng.integers(0, 2, 60))
    a, b = predict_ct(model, channels, mask), predict_ct(back, channels, mask)
    np.testing.assert_array_equal(a.ct.data, b.ct.data)
    np.testing.assert_array_equal(a.labels.data, b.labels.data)
