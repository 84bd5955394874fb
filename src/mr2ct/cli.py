"""Batch command-line front end.

Subcommands: phantom (synthetic cohort), train (cohort -> model bundle),
predict (model + MR volumes -> CT estimate), evaluate (leave-one-out
report), cv-classifier (10-fold classification metrics).  Each subcommand
takes the run keys that can change its output, RUN_KEYS, as flags; predict
takes none, as it reads its settings from the bundle.  Each subcommand
returns the files it wrote under --out; main then writes a manifest.json with
the checksum of every one of those files, the resolved values of the
subcommand's run keys, and for predict the bundle and patient it read.

Exit codes: 0 success, 2 usage, 3 config, 4 data/format, 5 feature layout,
6 estimation, 1 unexpected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

from . import __version__
from .boosting import BoostingError
from .config import RunConfig, load_run_config
from .errors import (
    ConfigError,
    DataError,
    FeatureLayoutError,
    FitError,
    ModelError,
    Mr2ctError,
    VolumeFormatError,
)
from .evaluation import kfold_cv, loo_patient_eval, write_regression_report
from .features import assemble
from .phantom import default_phantom_spec, generate_phantom
from .pipeline import (
    load_model,
    predict_ct,
    save_model,
    train_classifier_fold,
    train_pipeline,
)
from .volume import PatientDataset, load_patient, read_volume, write_volume

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DATA = 4
EXIT_LAYOUT = 5
EXIT_FIT = 6

MR_PREFIX = "mr"
CT_NAME = "ct.hdr"
MASK_NAME = "mask.hdr"
TRUE_LABELS_NAME = "true_labels.hdr"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, obj, indent: int | None = 2) -> Path:
    path.write_text(json.dumps(obj, indent=indent, sort_keys=True), encoding="utf-8")
    return path


def _patient_dir_paths(patient_dir: Path) -> tuple[list[Path], Path, Path]:
    mr_paths = sorted(patient_dir.glob(f"{MR_PREFIX}*.hdr"))
    if not mr_paths:
        raise DataError(f"{patient_dir}: no {MR_PREFIX}*.hdr channel headers found")
    return mr_paths, patient_dir / CT_NAME, patient_dir / MASK_NAME


def _load_cohort(cohort_dir: Path) -> list[PatientDataset]:
    if not cohort_dir.is_dir():
        raise DataError(f"cohort directory not found: {cohort_dir}")
    patients = []
    for sub in sorted(p for p in cohort_dir.iterdir() if p.is_dir()):
        mr_paths, ct_path, mask_path = _patient_dir_paths(sub)
        patients.append(load_patient(mr_paths, ct_path, mask_path, patient_id=sub.name))
    if not patients:
        raise DataError(f"cohort directory {cohort_dir} has no patient subdirectories")
    return patients


def _cmd_phantom(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    try:
        nx, ny, nz = (int(tok) for tok in args.dims.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"--dims needs three integer counts, got {args.dims!r}") from exc
    spec = default_phantom_spec(
        (nx, ny, nz), args.channels, args.minority_fraction, args.noise_scale
    )
    cohort = generate_phantom(spec, n_patients=args.patients, seed=cfg.seed)
    written: list[Path] = []
    for item in cohort:
        pdir = out_dir / item.dataset.patient_id
        pdir.mkdir(exist_ok=True)
        volumes = [(f"{MR_PREFIX}{c}.hdr", v) for c, v in enumerate(item.dataset.mr_channels)]
        volumes += [(CT_NAME, item.dataset.ct), (MASK_NAME, item.dataset.mask),
                    (TRUE_LABELS_NAME, item.true_labels)]
        for name, vol in volumes:
            written += write_volume(pdir / name, vol)
    truth = {
        "dims": [nx, ny, nz],
        "n_channels": args.channels,
        "minority_fraction": args.minority_fraction,
        "noise_scale": args.noise_scale,
        "seed": cfg.seed,
        "class_models": [m.to_dict() for m in spec.class_models],
    }
    written.append(_write_json(out_dir / "truth.json", truth, indent=None))
    print(f"wrote {args.patients} phantom patients to {out_dir}")
    return written


def _cmd_train(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    patients = _load_cohort(Path(args.cohort))
    model, report = train_pipeline(patients, config=cfg)
    model_path = out_dir / "model.json"
    save_model(model, model_path)
    written = [model_path, _write_json(out_dir / "train_report.json", report.to_dict())]
    print(
        f"trained on {report.n_patients} patients ({report.n_rows} voxels); "
        f"selected components per class: {list(model.selected_j)}; "
        f"classifier training error {report.classifier_training_error:.4f}"
    )
    return written


def _cmd_predict(args, cfg: None, out_dir: Path) -> list[Path]:
    model = load_model(args.model)
    mr_paths, _, mask_path = _patient_dir_paths(Path(args.patient))
    channels = tuple(read_volume(p) for p in mr_paths)
    mask = read_volume(mask_path)
    result = predict_ct(model, channels, mask)
    summary = {
        "n_predicted": result.n_predicted,
        "class_counts": list(result.class_counts),
        "fill_hu": model.fill_hu,
    }
    written = [
        *write_volume(out_dir / "ct_estimate.hdr", result.ct),
        *write_volume(out_dir / "labels.hdr", result.labels),
        _write_json(out_dir / "predict_report.json", summary),
    ]
    print(f"predicted {result.n_predicted} voxels; class counts {list(result.class_counts)}")
    return written


def _cmd_evaluate(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    patients = _load_cohort(Path(args.cohort))
    report = loo_patient_eval(patients, config=cfg)
    written = write_regression_report(report, out_dir)
    print(
        f"leave-one-out over {len(report.rows)} patients: "
        f"mean MAE {report.mean_mae:.2f} HU, bone-region {report.mean_bone_mae:.2f} HU"
    )
    return written


def _cmd_cv_classifier(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    patients = _load_cohort(Path(args.cohort))
    table = assemble(patients, order=cfg.order, threshold=cfg.threshold_hu)
    metrics, folds = kfold_cv(
        table.source, table.t,
        partial(train_classifier_fold, config=cfg), k=cfg.cv_folds, seed=cfg.seed,
    )
    payload = {"metrics": metrics.to_dict(), "folds": [asdict(f) for f in folds]}
    written = [_write_json(out_dir / "cv_metrics.json", payload)]
    print(
        f"{cfg.cv_folds}-fold CV: err {metrics.err:.4f}, "
        f"F-score {metrics.f_score:.4f} (minority label {metrics.positive_label})"
    )
    return written


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent notation,
    such as -1e4, as a value; argparse's own pattern takes it for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


# The run keys each subcommand reads.  evaluate scores only masked voxels, so
# fill_hu cannot change its output.
RUN_KEYS = {
    "phantom": ("seed",),
    "train": tuple(f.name for f in fields(RunConfig) if f.name not in ("window_hu", "cv_folds")),
    "evaluate": tuple(f.name for f in fields(RunConfig) if f.name not in ("fill_hu", "cv_folds")),
    "cv-classifier": ("threshold_hu", "order", "trees", "max_splits", "min_leaf",
                      "cv_folds", "seed"),
}


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """--config plus one flag per run key of command; values are parsed, and
    checked, by load_run_config like config file values."""
    parser.add_argument("--config", help="config file (key = value lines)")
    for key in RUN_KEYS[command]:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mr2ct",
        description="CT volume estimation from MR volumes: tissue classification "
        "plus per-tissue mixture regression.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic cohort with known truth")
    p.add_argument("--out", required=True)
    p.add_argument("--patients", type=int, default=4)
    p.add_argument("--dims", default="32,32,32")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--minority-fraction", type=float, default=0.1849,
                   dest="minority_fraction")
    p.add_argument("--noise-scale", type=float, default=3.0, dest="noise_scale")
    _add_config_flags(p, "phantom")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("train", help="train a model on a cohort directory")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "train")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict a CT volume for one patient")
    p.add_argument("--model", required=True)
    p.add_argument("--patient", required=True, help="directory with mr*.hdr and mask.hdr")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="leave-one-out evaluation over a cohort")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "evaluate")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("cv-classifier", help="k-fold CV of the tissue classifier")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, "cv-classifier")
    p.set_defaults(func=_cmd_cv_classifier)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        keys = RUN_KEYS.get(args.command, ())
        cfg = None
        if keys:  # predict takes no run keys
            cfg = load_run_config(args.config, {k: getattr(args, k) for k in keys})
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = args.func(args, cfg, out_dir)
        manifest = {
            "command": args.command,
            "artifacts": {str(p.relative_to(out_dir)): _sha256(p) for p in sorted(written)},
        }
        if cfg is not None:
            manifest["config"] = {k: getattr(cfg, k) for k in keys}
        else:
            model = Path(args.model).resolve()
            manifest["inputs"] = {"model": str(model), "model_sha256": _sha256(model),
                                  "patient": str(Path(args.patient).resolve())}
        _write_json(out_dir / "manifest.json", manifest)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (VolumeFormatError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FeatureLayoutError as exc:
        print(f"layout error: {exc}", file=sys.stderr)
        return EXIT_LAYOUT
    except (FitError, BoostingError, ModelError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except Mr2ctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    raise SystemExit(main())
