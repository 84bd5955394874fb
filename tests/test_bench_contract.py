"""The benchmark's tracer wraps mr2ct names from outside (bench/tracing.py,
BINDINGS), and its workloads pass train flags (bench/run.py, WORKLOADS).
These tests run the pipeline under the tracer and parse those flags, so a
moved or renamed binding, or a deleted or renamed run key, fails here, not
only at the next benchmark run."""

import os
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

import mr2ct.mixture
from mr2ct import default_phantom_spec, generate_phantom, predict_ct, train_pipeline
from mr2ct.cli import RUN_KEYS, build_parser
from mr2ct.config import load_run_config

from conftest import fast_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402  (bench/ is not a package)


@pytest.fixture(scope="module")
def traced():
    cohort = generate_phantom(default_phantom_spec(dims=(8, 8, 8)), n_patients=3, seed=3)
    datasets = [item.dataset for item in cohort]
    tracer = tracing.Tracer()
    with tracer.install():
        with tracer.op(0):
            model, report = train_pipeline(datasets[:2], config=fast_config(trees=2))
        with tracer.op(1):
            result = predict_ct(model, datasets[2].mr_channels, datasets[2].mask)
    return tracing.op_layer_metrics(tracer.spans), model, report, result


@pytest.fixture(scope="module")
def traced_mixed():
    """Second-order training on patients of different dims, whose pads
    assemble lays out on the cohort's shared strides."""
    cubes = generate_phantom(default_phantom_spec(dims=(8, 8, 8)), n_patients=2, seed=3)
    odd = generate_phantom(default_phantom_spec(dims=(6, 9, 7)), n_patients=1, seed=4)
    datasets = [item.dataset for item in cubes] + [replace(odd[0].dataset, patient_id="odd")]
    tracer = tracing.Tracer()
    with tracer.install(), tracer.op(0):
        model, report = train_pipeline(datasets, config=fast_config(order="second", trees=3))
    return tracing.op_layer_metrics(tracer.spans)[0], model, report, tracer.spans


def test_train_layers_are_counted(traced):
    metrics, model, report, _ = traced
    train = metrics[0]
    assert train["features.rows"] == report.n_rows
    layout = model.layout
    # One extraction per patient, each counted as its raw view plus its matrix.
    assert train["features.matrix_bytes"] == (
        report.n_rows * (layout.n_channels + layout.n_combined) * 8
    )
    assert train["tree.fit_calls"] > 0
    assert train["mixture.em_fit_calls"] > 0


def test_predict_layers_are_counted(traced):
    metrics, _, _, result = traced
    predict = metrics[1]
    assert predict["features.rows"] == result.n_predicted
    assert predict["tree.route_rows"] > 0
    assert predict["mixture.cond_rows"] == result.n_predicted


def test_blocked_regression_is_counted(traced):
    """With blocks of a few rows the regression calls
    conditional_expectation_many several times per class; its rows are
    still counted once each."""
    _, model, _, _ = traced
    held = generate_phantom(default_phantom_spec(dims=(8, 8, 8)), n_patients=1, seed=5)
    dataset = held[0].dataset
    tracer = tracing.Tracer()
    with mock.patch.object(mr2ct.mixture, "_BLOCK", 16), tracer.install(), tracer.op(0):
        result = predict_ct(model, dataset.mr_channels, dataset.mask)
    calls = sum(span[tracing.NAME] == "mixture.cond" for span in tracer.spans)
    assert calls > len(model.regressors)
    predict = tracing.op_layer_metrics(tracer.spans)[0]
    assert predict["mixture.cond_rows"] == result.n_predicted


def test_mixed_dims_training_is_counted(traced_mixed):
    train, model, report, _ = traced_mixed
    layout = model.layout
    assert train["features.rows"] == report.n_rows
    assert train["features.matrix_bytes"] == (
        report.n_rows * (layout.n_channels + layout.n_combined) * 8
    )
    # Each fit is counted by its source's shape: one resample per round.
    assert all(r.retries == 0 for r in report.boost_rounds)
    assert train["tree.fit_rows"] == sum(r.resample_size for r in report.boost_rounds)


def test_every_resample_is_timed(traced_mixed):
    """One boosting.resample span per tree fit, one of each per attempt, so
    the tracer times every draw whatever arguments rus_resample takes."""
    _, _, report, spans = traced_mixed
    calls = {name: sum(span[tracing.NAME] == name for span in spans)
             for name in ("boosting.resample", "tree.fit")}
    # No round of this cohort retries (see above): one attempt per round.
    assert calls["boosting.resample"] == calls["tree.fit"] == len(report.boost_rounds)


def test_workload_train_flags_are_run_keys(tmp_path):
    with mock.patch.dict(os.environ):  # run.py pins the BLAS thread variables at import
        import run
    empty = tmp_path / "empty.cfg"  # shields the configs from MR2CT_CONFIG
    empty.write_text("")
    for workload in run.WORKLOADS.values():
        args = build_parser().parse_args(
            ["train", "--cohort", "c", "--out", "o", *workload.train_flags]
        )
        load_run_config(empty, {k: getattr(args, k) for k in RUN_KEYS["train"]})
