"""Validation protocol: voxel-level k-fold CV for the classifier,
patient-level leave-one-out for the regression, and smoothed residual
curves over the true-intensity range.

The positive class for precision/recall/F1 score is the minority class.
Degenerate confusion counts use the 0/0 -> 0 convention throughout.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig
from .errors import DataError, FitError, Mr2ctError
from .labeling import minority_label
from .pipeline import predict_ct, train_pipeline
from .seeding import derive_seed, rng_for
from .tree import as_source
from .volume import PatientDataset, mask_indices


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(precision, recall, f_score) from confusion counts, with the F1 score
    Fs = 2 * Re * Pr / (Pr + Re)."""
    if min(tp, fp, fn) < 0:
        raise ValueError("confusion counts must be non-negative")
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    denom = precision + recall
    f_score = 2 * recall * precision / denom if denom > 0 else 0.0
    return precision, recall, f_score


@dataclass(frozen=True)
class ClassificationMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    err: float
    precision: float
    recall: float
    f_score: float
    positive_label: int

    @classmethod
    def from_counts(
        cls, tp: int, fp: int, fn: int, tn: int, positive_label: int = 1
    ) -> "ClassificationMetrics":
        n = tp + fp + fn + tn
        err = (fp + fn) / n if n > 0 else 0.0
        precision, recall, f_score = prf(tp, fp, fn)
        return cls(
            tp=tp, fp=fp, fn=fn, tn=tn, err=err,
            precision=precision, recall=recall, f_score=f_score,
            positive_label=positive_label,
        )

    @property
    def accuracy(self) -> float:
        return 1.0 - self.err

    def to_dict(self) -> dict:
        return {**asdict(self), "accuracy": self.accuracy}


def confusion_counts(
    true_labels: np.ndarray, pred_labels: np.ndarray, positive_label: int
) -> tuple[int, int, int, int]:
    true_pos = true_labels == positive_label
    pred_pos = pred_labels == positive_label
    tp = int(np.sum(true_pos & pred_pos))
    fp = int(np.sum(~true_pos & pred_pos))
    fn = int(np.sum(true_pos & ~pred_pos))
    tn = int(np.sum(~true_pos & ~pred_pos))
    return tp, fp, fn, tn


@dataclass
class FoldResult:
    fold: int
    n: int
    err: float
    counts: tuple[int, int, int, int]


def kfold_cv(
    x,
    labels: np.ndarray,
    train_fn: Callable,
    k: int = 10,
    seed: int = 0,
) -> tuple[ClassificationMetrics, list[FoldResult]]:
    """Voxel-level k-fold cross-validation of a classifier factory.

    train_fn(x_train, t_train, fold_seed) must return a predict callable;
    both are handed row sources of x, a PaddedSource or an ndarray read as
    one with a channel per column, which share its pads.
    Folds come from a seeded shuffle split into k near-equal blocks; if any
    fold leaves the training side without one of the classes, the partition
    is redrawn once before giving up.
    """
    source = as_source(x)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n = labels.shape[0]
    if source.shape[0] != n:
        raise DataError(f"{source.shape[0]} feature rows for {n} labels")
    if k < 2:
        raise DataError("k-fold CV needs k >= 2")
    if n < k:
        raise DataError(f"{n} samples cannot fill {k} folds")
    classes = np.unique(labels)

    def draw_folds(attempt: int) -> list[np.ndarray] | None:
        perm = rng_for(seed, attempt).permutation(n)
        folds = np.array_split(perm, k)
        for fold in folds:
            held = np.ones(n, dtype=bool)
            held[fold] = False
            if np.unique(labels[held]).size < classes.size:
                return None
        return folds

    folds = draw_folds(0)
    if folds is None:
        folds = draw_folds(1)
    if folds is None:
        raise DataError("a CV fold is missing a class even after one redraw")

    positive = minority_label(labels)
    totals = np.zeros(4, dtype=np.int64)
    fold_results = []
    for i, fold in enumerate(folds):
        held = np.ones(n, dtype=bool)
        held[fold] = False
        predictor = train_fn(
            source.rows(np.flatnonzero(held)), labels[held], derive_seed(seed, 1000 + i)
        )
        pred = np.asarray(predictor(source.rows(fold)), dtype=np.int64)
        wrong = int(np.sum(pred != labels[fold]))
        counts = confusion_counts(labels[fold], pred, positive)
        totals += np.asarray(counts)
        fold_results.append(
            FoldResult(fold=i, n=fold.size, err=wrong / fold.size, counts=counts)
        )
    metrics = ClassificationMetrics.from_counts(*[int(c) for c in totals], positive_label=positive)
    return metrics, fold_results


@dataclass(frozen=True)
class ResidualCurve:
    """Windowed residual summary: one row per non-empty window."""

    centers: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    window: float
    mode: str


def smoothed_residuals(
    mct: np.ndarray, sct: np.ndarray, window: float = 20.0, mode: str = "signed"
) -> ResidualCurve:
    """Mean residual (sct - mct) or mean absolute residual per window.

    Windows are non-overlapping, width ``window``, anchored at the smallest
    observed true intensity; only windows containing at least one voxel are
    returned.
    """
    if mode not in ("signed", "absolute"):
        raise ValueError(f"mode must be 'signed' or 'absolute', got {mode!r}")
    if not 0 < window < np.inf:  # NaN fails too
        raise ValueError(f"window width must be finite and positive, got {window!r}")
    mct = np.asarray(mct, dtype=np.float64).reshape(-1)
    sct = np.asarray(sct, dtype=np.float64).reshape(-1)
    if mct.size == 0 or mct.shape != sct.shape:
        raise DataError("need equal-length, non-empty intensity vectors")
    lo = mct.min()
    bins = np.floor((mct - lo) / window).astype(np.int64)
    resid = sct - mct
    if mode == "absolute":
        resid = np.abs(resid)
    n_bins = int(bins.max()) + 1
    counts = np.bincount(bins, minlength=n_bins)
    sums = np.bincount(bins, weights=resid, minlength=n_bins)
    nonempty = counts > 0
    centers = lo + (np.flatnonzero(nonempty) + 0.5) * window
    return ResidualCurve(
        centers=centers,
        values=sums[nonempty] / counts[nonempty],
        counts=counts[nonempty],
        window=window,
        mode=mode,
    )


@dataclass
class PatientEvalRow:
    patient_id: str
    mae: float
    bone_mae: float
    n_voxels: int
    n_bone: int
    failed: bool = False
    error: str | None = None


@dataclass
class RegressionReport:
    rows: list[PatientEvalRow]
    mean_mae: float
    mean_bone_mae: float
    signed_curve: ResidualCurve
    absolute_curve: ResidualCurve
    threshold_hu: float
    window_hu: float

    def to_dict(self) -> dict:
        return {
            "per_patient": [asdict(r) for r in self.rows],
            "mean_mae": self.mean_mae,
            "mean_bone_mae": self.mean_bone_mae,
            "threshold_hu": self.threshold_hu,
            "window_hu": self.window_hu,
        }


def masked_mae(true_vals: np.ndarray, pred_vals: np.ndarray) -> float:
    return float(np.mean(np.abs(pred_vals - true_vals)))


def loo_patient_eval(
    patients: Sequence[PatientDataset],
    config: RunConfig = RunConfig(),
    trainer: Callable = train_pipeline,
    predictor: Callable = predict_ct,
) -> RegressionReport:
    """Leave-one-out at patient level: train on the rest, score the held-out.

    Each row reports the whole-region MAE and the bone-region MAE (voxels
    whose true CT exceeds the labeling threshold).  A fold whose training
    or prediction raises a package error (Mr2ctError) is flagged and skipped
    rather than aborting the whole run; any other exception propagates, and
    FitError is raised when no fold succeeds.
    Fold i trains with seed derive_seed(config.seed, i).  Residual curves
    pool the voxels of every successfully evaluated patient, in windows of
    config.window_hu.

    trainer/predictor default to the real pipeline; they are injectable so
    the report arithmetic can be exercised against reference predictors.
    """
    if len(patients) < 2:
        raise DataError("leave-one-out needs at least two patients")
    ordered = sorted(patients, key=lambda p: p.patient_id)
    rows: list[PatientEvalRow] = []
    pooled_true: list[np.ndarray] = []
    pooled_pred: list[np.ndarray] = []
    for i, held in enumerate(ordered):
        rest = [p for p in ordered if p.patient_id != held.patient_id]
        try:
            fold_config = replace(config, seed=derive_seed(config.seed, i))
            model, _ = trainer(rest, config=fold_config)
            result = predictor(model, held.mr_channels, held.mask)
        except Mr2ctError as exc:
            rows.append(
                PatientEvalRow(
                    patient_id=held.patient_id, mae=float("nan"),
                    bone_mae=float("nan"), n_voxels=0, n_bone=0,
                    failed=True, error=str(exc),
                )
            )
            continue
        idx = mask_indices(held.mask)
        true_vals = held.ct.data[idx].astype(np.float64)
        pred_vals = result.ct.data[idx].astype(np.float64)
        bone = true_vals > config.threshold_hu
        rows.append(
            PatientEvalRow(
                patient_id=held.patient_id,
                mae=masked_mae(true_vals, pred_vals),
                bone_mae=masked_mae(true_vals[bone], pred_vals[bone])
                if bone.any()
                else float("nan"),
                n_voxels=int(idx.size),
                n_bone=int(bone.sum()),
            )
        )
        pooled_true.append(true_vals)
        pooled_pred.append(pred_vals)

    ok = [r for r in rows if not r.failed]
    if not ok:
        raise FitError("every leave-one-out fold failed: " + "; ".join(
            f"{r.patient_id}: {r.error}" for r in rows))
    bone_rows = [r.bone_mae for r in ok if r.n_bone > 0]
    mct = np.concatenate(pooled_true)
    sct = np.concatenate(pooled_pred)
    return RegressionReport(
        rows=rows,
        mean_mae=float(np.mean([r.mae for r in ok])),
        mean_bone_mae=float(np.mean(bone_rows)) if bone_rows else float("nan"),
        signed_curve=smoothed_residuals(mct, sct, window=config.window_hu, mode="signed"),
        absolute_curve=smoothed_residuals(mct, sct, window=config.window_hu, mode="absolute"),
        threshold_hu=config.threshold_hu,
        window_hu=config.window_hu,
    )


def write_regression_report(report: RegressionReport, out_dir: str | Path) -> list[Path]:
    """Emit per_patient.csv, residual_curves.csv, and summary.json into the
    existing out_dir."""
    out_dir = Path(out_dir)
    written = []

    per_patient = out_dir / "per_patient.csv"
    with per_patient.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["patient_id", "mae_hu", "bone_mae_hu", "n_voxels", "n_bone", "failed", "error"]
        )
        for r in report.rows:
            writer.writerow(
                [r.patient_id, repr(r.mae), repr(r.bone_mae), r.n_voxels, r.n_bone,
                 int(r.failed), r.error or ""]
            )
    written.append(per_patient)

    curves = out_dir / "residual_curves.csv"
    with curves.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["window_center_hu", "n_voxels",
             "residual_sct_minus_mct_hu", "prediction_error_mct_minus_sct_hu",
             "absolute_residual_hu"]
        )
        sc, ac = report.signed_curve, report.absolute_curve
        for c, n, v, a in zip(sc.centers, sc.counts, sc.values, ac.values):
            writer.writerow([repr(float(c)), int(n), repr(float(v)),
                             repr(float(-v)), repr(float(a))])
    written.append(curves)

    summary = out_dir / "summary.json"
    summary.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True), encoding="utf-8")
    written.append(summary)
    return written
