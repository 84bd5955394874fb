"""The benchmark's tracer wraps mr2ct names from outside (bench/tracing.py,
BINDINGS).  These tests run the pipeline under it, so a moved or renamed
binding fails here with the tracer's KeyError, not only at the next
benchmark run."""

import sys
from pathlib import Path

import pytest

from mr2ct import default_phantom_spec, generate_phantom, predict_ct, train_pipeline

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
