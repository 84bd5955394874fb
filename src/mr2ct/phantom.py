"""Synthetic phantom cohorts with known generating parameters.

Each phantom patient is built in two steps: a smooth random field is
thresholded at the quantile that hits the target minority (bone) fraction,
giving a spatially coherent label map, and then every voxel draws its joint
(ct, mr...) vector from the true mixture of its class.  Because labels are
spatially smooth, neighborhood features genuinely carry class information.

The true parameters double as an oracle: predictions made with the true
labels and the true per-class conditionals lower-bound the error any
trained pipeline can reach on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import DataError
from .features import FIRST_ORDER, extract_feature_matrix
from .mixture import MixtureModel
from .pipeline import regress_by_label
from .seeding import derive_seed
from .volume import PatientDataset, Volume, check_mask

DEFAULT_MINORITY_FRACTION = 0.1849
SPACING = (1.0, 1.0, 1.0)  # voxel spacing of every phantom volume


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int]
    n_channels: int
    class_models: tuple[MixtureModel, ...]
    minority_fraction: float = DEFAULT_MINORITY_FRACTION
    noise_scale: float = 3.0

    def __post_init__(self):
        if len(self.dims) != 3 or any(n < 1 for n in self.dims):
            raise DataError(f"phantom dims must be three counts >= 1, got {self.dims}")
        if not (0.0 < self.minority_fraction < 1.0):
            raise DataError(
                f"minority fraction must lie in (0, 1), got {self.minority_fraction}"
            )
        if not (0.0 < self.noise_scale < np.inf):
            raise DataError(f"noise scale must be positive and finite, got {self.noise_scale}")
        if len(self.class_models) < 2:
            raise DataError("phantom needs one model per class, at least two classes")
        dim = 1 + self.n_channels
        for k, model in enumerate(self.class_models):
            if model.dim != dim:
                raise DataError(
                    f"class {k} model dim {model.dim} does not match 1 + {self.n_channels}"
                )


@dataclass(frozen=True)
class PhantomPatient:
    dataset: PatientDataset
    true_labels: Volume


def _label_field(spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    nx, ny, nz = spec.dims
    noise = rng.standard_normal((nz, ny, nx))
    smooth = gaussian_filter(noise, sigma=spec.noise_scale, mode="nearest")
    cut = np.quantile(smooth, 1.0 - spec.minority_fraction)
    labels = (smooth > cut).ravel().astype(np.int8)
    realized = labels.mean()
    if abs(realized - spec.minority_fraction) > 0.02:
        raise DataError(
            f"label field realized minority fraction {realized:.4f} is more than "
            f"0.02 away from the target {spec.minority_fraction:.4f}; the layout "
            f"rule cannot achieve it at dims {spec.dims}"
        )
    return labels


def generate_phantom(
    spec: PhantomSpec, n_patients: int, seed: int = 0
) -> list[PhantomPatient]:
    """Seeded cohort of phantom patients with full masks and known labels."""
    if n_patients < 1:
        raise DataError("need at least one phantom patient")
    patients = []
    for p in range(n_patients):
        rng = np.random.default_rng(derive_seed(seed, p))
        labels = _label_field(spec, rng)
        n = labels.shape[0]
        joint = np.empty((n, 1 + spec.n_channels), dtype=np.float64)
        for k, model in enumerate(spec.class_models):
            rows = np.flatnonzero(labels == k)
            if rows.size:
                joint[rows] = model.sample(rows.size, rng)
        ct = Volume(dims=spec.dims, spacing=SPACING, data=joint[:, 0])
        channels = tuple(
            Volume(dims=spec.dims, spacing=SPACING, data=joint[:, 1 + c])
            for c in range(spec.n_channels)
        )
        mask = Volume(dims=spec.dims, spacing=SPACING, data=np.ones(n))
        dataset = PatientDataset(
            patient_id=f"phantom{p:03d}", mr_channels=channels, ct=ct, mask=mask
        )
        patients.append(
            PhantomPatient(
                dataset=dataset,
                true_labels=Volume(dims=spec.dims, spacing=SPACING, data=labels),
            )
        )
    return patients


def oracle_predict_ct(
    class_models: Sequence[MixtureModel],
    true_labels: Volume,
    mr_channels: tuple[Volume, ...],
    mask: Volume,
    fill_value: float = -1000.0,
) -> Volume:
    """predict_ct's regression, under the true labels and per-class conditionals."""
    check_mask(mask)
    idx, x, _ = extract_feature_matrix(mr_channels, mask, FIRST_ORDER)
    labels = true_labels.data[idx].astype(np.int64)
    return regress_by_label(class_models, labels, x, idx, mask, fill_value)


def _factor_model(
    mean_y: float,
    sd_y: float,
    mean_x: tuple[float, ...],
    sd_x: tuple[float, ...],
    corr: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """(mean, covariance) of a single-factor joint Gaussian over (y, x).

    y loads fully on the shared factor and each channel c loads with
    correlation corr[c], which keeps the covariance positive definite for
    any |corr| < 1.
    """
    d = len(mean_x)
    mean = np.array([mean_y, *mean_x], dtype=np.float64)
    cov = np.empty((1 + d, 1 + d), dtype=np.float64)
    cov[0, 0] = sd_y**2
    for c in range(d):
        cov[0, 1 + c] = cov[1 + c, 0] = corr[c] * sd_y * sd_x[c]
        for c2 in range(d):
            if c == c2:
                cov[1 + c, 1 + c2] = sd_x[c] ** 2
            else:
                cov[1 + c, 1 + c2] = corr[c] * corr[c2] * sd_x[c] * sd_x[c2]
    return mean, cov


def default_class_models(n_channels: int = 4) -> tuple[MixtureModel, MixtureModel]:
    """Two-class truth with air/soft structure below the bone threshold and
    two bone sub-populations above it, separated enough in feature space for
    the labels to be learnable."""
    if n_channels < 1:
        raise DataError(f"a phantom needs at least one MR channel, got {n_channels}")
    base_x = np.linspace(0.9, 1.15, n_channels)

    def scaled(level: float) -> tuple[float, ...]:
        return tuple(float(level * b) for b in base_x)

    corr = tuple(float(c) for c in np.linspace(0.68, 0.55, n_channels))
    air_mean, air_cov = _factor_model(-750.0, 110.0, scaled(16.0), scaled(7.0), corr)
    soft_mean, soft_cov = _factor_model(12.0, 30.0, scaled(75.0), scaled(12.0), corr)
    non_bone = MixtureModel(
        weights=np.array([0.32, 0.68]),
        means=np.vstack([air_mean, soft_mean]),
        covariances=np.stack([air_cov, soft_cov]),
    )
    dense_mean, dense_cov = _factor_model(820.0, 140.0, scaled(225.0), scaled(16.0), corr)
    spongy_mean, spongy_cov = _factor_model(430.0, 105.0, scaled(170.0), scaled(14.0), corr)
    bone = MixtureModel(
        weights=np.array([0.45, 0.55]),
        means=np.vstack([dense_mean, spongy_mean]),
        covariances=np.stack([dense_cov, spongy_cov]),
    )
    return non_bone, bone


def default_phantom_spec(
    dims: tuple[int, int, int] = (32, 32, 32),
    n_channels: int = 4,
    minority_fraction: float = DEFAULT_MINORITY_FRACTION,
    noise_scale: float = 3.0,
) -> PhantomSpec:
    return PhantomSpec(
        dims=dims,
        n_channels=n_channels,
        class_models=default_class_models(n_channels),
        minority_fraction=minority_fraction,
        noise_scale=noise_scale,
    )
