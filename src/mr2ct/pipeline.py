"""End-to-end training and prediction.

Training labels every voxel from its CT intensity, selects a per-class
mixture order on held-out data, and trains the boosted classifier on the
combined raw + neighborhood features.  Prediction classifies each masked
voxel and evaluates the winning class's conditional regression on the raw
features; unmasked voxels receive the configured fill value.

The regressors intentionally see only the raw channel intensities: the
joint mixtures are defined over (y, x) while spatial context belongs to the
classifier.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .boosting import BoostedEnsemble, BoostRound, train_rusboost
from .config import RunConfig
from .errors import DataError, FeatureLayoutError, ModelError
from .features import FeatureLayout, assemble, extract_feature_matrix
from .labeling import N_CLASSES
from .mixture import (
    MixtureModel,
    SelectionReport,
    _row_blocks,
    conditional_expectation_many,
    select_model,
)
from .seeding import derive_seed, rng_for
from .volume import FLOAT32_MAX, PatientDataset, Volume, check_mask, regular_file_size, volume_like

BUNDLE_FORMAT_VERSION = 5
BUNDLE_KIND = "mr2ct-model-bundle"

_SALT_VAL_PATIENT = 101
_SALT_GMM = 102
_SALT_BOOST = 103
_SALT_SUBSAMPLE = 105


@dataclass(frozen=True)
class PipelineModel:
    classifier: BoostedEnsemble
    regressors: tuple[MixtureModel, ...]  # indexed by tissue label
    fill_hu: float  # CT value written outside the mask
    layout: FeatureLayout
    seed: int
    selected_j: tuple[int, ...]

    def __post_init__(self):
        """Reject parts that could not have been trained together."""
        if self.layout.n_combined != self.classifier.n_features:
            raise ModelError(
                f"layout yields {self.layout.n_combined} features, "
                f"classifier expects {self.classifier.n_features}"
            )
        if self.classifier.n_labels != N_CLASSES or len(self.regressors) != N_CLASSES:
            raise ModelError(
                f"need {N_CLASSES} tissue classes, classifier has "
                f"{self.classifier.n_labels} and there are {len(self.regressors)} regressors"
            )
        dims = [reg.dim for reg in self.regressors]
        if dims != [self.layout.n_channels + 1] * N_CLASSES:
            raise ModelError(
                f"regressors have dims {dims}, layout needs "
                f"{self.layout.n_channels + 1} (CT plus {self.layout.n_channels} channels)"
            )
        if not abs(self.fill_hu) <= FLOAT32_MAX:
            raise ModelError(f"fill_hu must be finite in float32, got {self.fill_hu!r}")


@dataclass
class TrainReport:
    n_patients: int
    n_rows: int
    label_counts: list[int]
    minority_fraction: float
    validation_patient: str
    selection: list[SelectionReport]
    classifier_training_error: float
    boost_rounds: tuple[BoostRound, ...]
    seed: int

    def to_dict(self) -> dict:
        return {**asdict(self), "selection": [s.to_dict() for s in self.selection]}


def _subsample(rows: np.ndarray, cap: int, seed: int) -> np.ndarray:
    if cap <= 0 or rows.shape[0] <= cap:
        return rows
    keep = rng_for(seed).choice(rows.shape[0], size=cap, replace=False)
    return rows[np.sort(keep)]


def train_classifier_fold(
    x, labels: np.ndarray, fold_seed: int, config: RunConfig
) -> Callable:
    """kfold_cv trainer: fit the configured classifier on one fold's row
    source and return its predict.  Bind config with functools.partial."""
    return train_rusboost(x, labels, config, seed=fold_seed, n_labels=N_CLASSES).predict


def train_pipeline(
    patients: Sequence[PatientDataset],
    config: RunConfig = RunConfig(),
) -> tuple[PipelineModel, TrainReport]:
    """Train classifier and per-class regressors on a cohort.

    Patients are processed in sorted patient_id order, so the result does
    not depend on how the cohort list happens to be ordered.  One patient,
    chosen by config.seed, is held out of the mixture fits to score the
    candidate component counts.
    """
    seed = config.seed
    if len(patients) < 2:
        raise DataError("training needs at least two patients for a validation split")
    ids = [p.patient_id for p in patients]
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate patient ids in cohort: {sorted(ids)}")
    ordered = sorted(patients, key=lambda p: p.patient_id)
    table = assemble(ordered, order=config.order, threshold=config.threshold_hu)

    counts = np.bincount(table.t, minlength=N_CLASSES)
    if np.any(counts == 0):
        raise DataError(
            f"both tissue classes must be present; label counts are {counts.tolist()}"
        )

    val_pick = int(rng_for(seed, _SALT_VAL_PATIENT).integers(len(ordered)))
    is_val = np.zeros(len(table), dtype=bool)
    is_val[table.starts[val_pick]:table.starts[val_pick + 1]] = True

    # The raw columns, read from the float32 pads, widen exactly to float64.
    raw = [table.source.column(c, table.source.base) for c in range(table.layout.n_channels)]
    joint = np.column_stack([table.y, *raw])

    regressors: list = []
    selection_reports: list[SelectionReport] = []
    selected_j: list[int] = []
    for k in range(N_CLASSES):
        in_class = table.t == k
        train_rows = np.flatnonzero(in_class & ~is_val)
        val_rows = np.flatnonzero(in_class & is_val)
        if val_rows.size == 0:
            # held-out patient lacks this class: fall back to a seeded voxel split
            all_rows = np.flatnonzero(in_class)
            perm = rng_for(seed, _SALT_VAL_PATIENT, k).permutation(all_rows.shape[0])
            cut = max(1, all_rows.shape[0] // 4)
            val_rows = all_rows[np.sort(perm[:cut])]
            train_rows = all_rows[np.sort(perm[cut:])]
        train_rows = _subsample(
            train_rows, config.gmm_max_rows, derive_seed(seed, _SALT_SUBSAMPLE, k)
        )
        model, j_star, report = select_model(
            joint[train_rows], joint[val_rows], config, seed=derive_seed(seed, _SALT_GMM, k)
        )
        regressors.append(model)
        selection_reports.append(report)
        selected_j.append(j_star)

    layout = table.layout
    ensemble = train_rusboost(
        table.source, table.t, config, seed=derive_seed(seed, _SALT_BOOST), n_labels=N_CLASSES
    )

    model = PipelineModel(
        classifier=ensemble,
        regressors=tuple(regressors),
        fill_hu=config.fill_hu,
        layout=layout,
        seed=seed,
        selected_j=tuple(selected_j),
    )
    report = TrainReport(
        n_patients=len(ordered),
        n_rows=len(table),
        label_counts=counts.tolist(),
        minority_fraction=float(counts[1] / counts.sum()),
        validation_patient=table.patient_ids[val_pick],
        selection=selection_reports,
        classifier_training_error=ensemble.rounds[-1].train_error,
        boost_rounds=ensemble.rounds,
        seed=seed,
    )
    return model, report


@dataclass(frozen=True)
class PredictionResult:
    ct: Volume
    labels: Volume
    n_predicted: int
    class_counts: tuple[int, ...]


def regress_by_label(
    regressors: Sequence[MixtureModel],
    labels: np.ndarray,
    x_raw: np.ndarray,
    flat_idx: np.ndarray,
    mask: Volume,
    fill: float,
) -> Volume:
    """CT volume on mask's grid: fill everywhere but at flat_idx, where row i
    gets E[ct | x_raw[i]] under the regressor of labels[i].

    Each class's rows go to conditional_expectation_many one column block at
    a time, so no (J, n) or (dim, n) temporary spans a patient.  The blocks
    come from mixture._row_blocks: _BLOCK rows, a power of two, with a
    one-row tail joined to the block before it, since BLAS rounds a one-row
    block on its matrix-vector path.  So every estimate equals the
    whole-class call's bit for bit.
    """
    ct = np.full(mask.n_voxels, fill, dtype=np.float64)
    for k, regressor in enumerate(regressors):
        rows = np.flatnonzero(labels == k)
        for cols in _row_blocks(rows.size):
            block = rows[cols]
            y_hat, _ = conditional_expectation_many(regressor, x_raw[block])
            ct[flat_idx[block]] = y_hat
    return volume_like(mask, ct)


def predict_ct(
    model: PipelineModel,
    mr_channels: Sequence[Volume],
    mask: Volume,
) -> PredictionResult:
    """Estimate a CT volume and the hard label map for new MR channels."""
    channels = tuple(mr_channels)
    for i, vol in enumerate(channels):
        if not vol.same_geometry(mask):
            raise DataError(f"MR channel {i} dims/spacing do not match the mask")
    check_mask(mask)
    if len(channels) != model.layout.n_channels:
        raise FeatureLayoutError(
            f"model was trained on {model.layout.n_channels} channels, "
            f"got {len(channels)}"
        )

    flat_idx, x_raw, source = extract_feature_matrix(channels, mask, model.layout.order)
    # The channel count matches the layout and PipelineModel matches the
    # layout to the classifier, so the columns are the classifier's.
    hard = model.classifier.predict(source)
    label_out = np.zeros(mask.n_voxels, dtype=np.float64)
    label_out[flat_idx] = hard
    return PredictionResult(
        ct=regress_by_label(model.regressors, hard, x_raw, flat_idx, mask, model.fill_hu),
        labels=volume_like(mask, label_out),
        n_predicted=int(flat_idx.size),
        class_counts=tuple(int(n) for n in np.bincount(hard, minlength=N_CLASSES)),
    )


_BUNDLE_KEYS = {"format_version", "kind", "seed", "selected_j", "fill_hu", "layout",
                "classifier", "regressors"}


def model_to_dict(model: PipelineModel) -> dict:
    return {
        "format_version": BUNDLE_FORMAT_VERSION,
        "kind": BUNDLE_KIND,
        "seed": model.seed,
        "selected_j": list(model.selected_j),
        "fill_hu": model.fill_hu,
        "layout": asdict(model.layout),
        "classifier": model.classifier.to_dict(),
        "regressors": [m.to_dict() for m in model.regressors],
    }


def model_from_dict(d: dict) -> PipelineModel:
    """Rebuild a model from its bundle dict; a missing or unknown key, a
    value of the wrong type or shape, or an unknown layout or regressor key
    raises ModelError, and so does a dict that the model does not save back
    to, such as one with a stale key or a value the loader coerced."""
    try:
        version = int(d.get("format_version", -1))
        if d.get("kind") != BUNDLE_KIND or version != BUNDLE_FORMAT_VERSION:
            raise ModelError(
                f"not a model bundle of format version {BUNDLE_FORMAT_VERSION}: "
                f"kind={d.get('kind')!r} version={d.get('format_version')!r}"
            )
        if d.keys() != _BUNDLE_KEYS:
            raise ModelError(
                f"bundle keys must be {sorted(_BUNDLE_KEYS)}, got {sorted(d.keys())}"
            )
        if type(d["fill_hu"]) not in (int, float):
            raise ModelError(f"fill_hu must be a JSON number, got {d['fill_hu']!r}")
        model = PipelineModel(
            classifier=BoostedEnsemble.from_dict(d["classifier"]),
            regressors=tuple(MixtureModel(**entry) for entry in d["regressors"]),
            fill_hu=float(d["fill_hu"]),
            layout=FeatureLayout(**d["layout"]),
            seed=int(d["seed"]),
            selected_j=tuple(int(j) for j in d["selected_j"]),
        )
        # Compared as text: 2.0 == 2 and True == 1 in Python, not in JSON.
        if _bundle_text(model) != _canonical_json(d):
            raise ModelError("the model built from the bundle dict does not save back to it")
    except (AttributeError, DataError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model bundle: {type(exc).__name__}: {exc}") from exc
    return model


def _canonical_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _bundle_text(model: PipelineModel) -> str:
    return _canonical_json(model_to_dict(model))


def save_model(model: PipelineModel, path: str | Path) -> None:
    """Write the bundle as deterministic JSON (same model, same bytes)."""
    Path(path).write_text(_bundle_text(model), encoding="utf-8")


def load_model(path: str | Path) -> PipelineModel:
    """Read a bundle; an unreadable file raises DataError, bad content ModelError,
    and so does a bundle whose model does not save back to the same bytes."""
    regular_file_size(Path(path), DataError, "model bundle")
    try:
        text = Path(path).read_text(encoding="utf-8")
        d = json.loads(text)
    except OSError as exc:
        raise DataError(f"cannot read model bundle {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also undecodable UTF-8, over-nested JSON
        raise ModelError(f"{path}: not a JSON model bundle: {exc}") from exc
    model = model_from_dict(d)
    if _bundle_text(model) != text:
        raise ModelError(f"{path}: the bundle does not save back to its own bytes")
    return model
