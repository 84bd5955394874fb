"""Neighborhood feature extraction and multi-patient sample assembly.

Each masked voxel yields one row: the d raw channel intensities at the voxel
(x), the channel intensities at its 6 axis-adjacent (first order) or 26
shell (second order) neighbors (x_s), the CT intensity (y), and the tissue
label (t).

Neighbor offsets are (dz, dy, dx) triples enumerated in ascending
lexicographic order, which fixes the column layout across runs.  x_s is
channel-major: all offsets of channel 0, then all offsets of channel 1, and
so on.  Out-of-bounds neighbors replicate the nearest in-bounds voxel along
each clamped axis; extraction implements that clamp by padding every channel
with one voxel of edge replication and reading shifted windows of the pad.

Extraction fills one column-major (Fortran order) feature matrix per call:
the d raw channel columns first, then the channel-major neighbor columns.
That is the classifier's column order and export_csv's; x is the view of
its first d columns, which is all the mixture regression reads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .labeling import DEFAULT_THRESHOLD_HU, label_tissue_many
from .volume import PatientDataset, Volume

FIRST_ORDER = "first"
SECOND_ORDER = "second"


def neighbor_offsets(order: str) -> tuple[tuple[int, int, int], ...]:
    """(dz, dy, dx) offsets for the given neighborhood order, lexicographic."""
    if order == SECOND_ORDER:
        return tuple(
            (dz, dy, dx)
            for dz in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if (dz, dy, dx) != (0, 0, 0)
        )
    if order == FIRST_ORDER:
        return tuple(
            (dz, dy, dx)
            for dz in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for dx in (-1, 0, 1)
            if abs(dz) + abs(dy) + abs(dx) == 1
        )
    raise ValueError(f"neighborhood order must be 'first' or 'second', got {order!r}")


@dataclass(frozen=True)
class FeatureLayout:
    """Column layout descriptor for one extraction configuration."""

    n_channels: int
    order: str

    def __post_init__(self):
        if self.n_channels < 1:
            raise DataError("feature layout needs at least one channel")
        neighbor_offsets(self.order)  # validates order

    @property
    def offsets(self) -> tuple[tuple[int, int, int], ...]:
        return neighbor_offsets(self.order)

    @property
    def n_neighbor(self) -> int:
        return self.n_channels * len(self.offsets)

    @property
    def n_combined(self) -> int:
        return self.n_channels + self.n_neighbor

    def raw_names(self) -> list[str]:
        return [f"x{c}" for c in range(self.n_channels)]

    def neighbor_names(self) -> list[str]:
        return [
            f"xs{c}_o{k}"
            for c in range(self.n_channels)
            for k in range(len(self.offsets))
        ]


@dataclass(frozen=True)
class SampleTable:
    """Flat per-voxel sample table shared by training and evaluation.

    Rows follow ascending voxel index within each patient and patient order
    as given to assemble().
    """

    layout: FeatureLayout
    patient_ids: np.ndarray  # (n,) str
    voxel_index: np.ndarray  # (n,) int64 flat index, x-fastest
    features: np.ndarray     # (n, d + d * n_offsets) raw then neighbor intensities
    y: np.ndarray            # (n,) CT intensity in HU
    t: np.ndarray            # (n,) int8 class label

    def __post_init__(self):
        n = self.y.shape[0]
        shapes_ok = (
            self.patient_ids.shape == (n,)
            and self.voxel_index.shape == (n,)
            and self.features.shape == (n, self.layout.n_combined)
            and self.t.shape == (n,)
        )
        if not shapes_ok:
            raise DataError("sample table arrays are inconsistent with the layout")

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def x(self) -> np.ndarray:
        """(n, d) raw intensities, a view of features."""
        return self.features[:, : self.layout.n_channels]

    @property
    def xs(self) -> np.ndarray:
        """(n, d * n_offsets) neighbor intensities, a view of features."""
        return self.features[:, self.layout.n_channels :]

    def column_names(self) -> list[str]:
        return (
            ["patient_id", "voxel_index"]
            + self.layout.raw_names()
            + self.layout.neighbor_names()
            + ["y", "t"]
        )


def extract_feature_matrix(
    channels: Sequence[Volume],
    mask: Volume,
    order: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(voxel_index, raw, features) for masked voxels.

    Used by both training extraction (which also has a CT volume) and
    prediction (which does not).  features is one column-major matrix of
    raw then neighbor columns, so each feature column is contiguous for
    tree routing; raw is the view of its first len(channels) columns.
    """
    flat_idx = np.flatnonzero(mask.data == 1.0).astype(np.int64)
    nx, ny, nz = mask.dims
    offsets = neighbor_offsets(order)
    d = len(channels)
    features = np.empty((flat_idx.size, d * (1 + len(offsets))), dtype=np.float64, order="F")
    for c, vol in enumerate(channels):
        features[:, c] = vol.data[flat_idx]
        padded = np.pad(vol.grid(), 1, mode="edge")
        for k, (dz, dy, dx) in enumerate(offsets):
            shifted = padded[1 + dz:1 + dz + nz, 1 + dy:1 + dy + ny, 1 + dx:1 + dx + nx]
            features[:, d + c * len(offsets) + k] = shifted.reshape(-1)[flat_idx]
    return flat_idx, features[:, :d], features


def extract_features(
    patient: PatientDataset,
    order: str = SECOND_ORDER,
    threshold: float = DEFAULT_THRESHOLD_HU,
) -> SampleTable:
    """One sample row per mask-1 voxel of the patient.

    Raises DataError when the mask selects no voxels: silently returning an
    empty table would hide upstream masking bugs.
    """
    flat_idx, _, features = extract_feature_matrix(patient.mr_channels, patient.mask, order)
    if flat_idx.size == 0:
        raise DataError(f"patient {patient.patient_id!r}: mask selects no voxels")
    y = patient.ct.data[flat_idx].astype(np.float64)
    t = label_tissue_many(y, threshold)
    layout = FeatureLayout(n_channels=patient.n_channels, order=order)
    pid = np.full(flat_idx.size, patient.patient_id, dtype=object)
    return SampleTable(
        layout=layout, patient_ids=pid, voxel_index=flat_idx, features=features, y=y, t=t
    )


def assemble(
    patients: Sequence[PatientDataset],
    order: str = SECOND_ORDER,
    threshold: float = DEFAULT_THRESHOLD_HU,
) -> SampleTable:
    """Row-concatenation of per-patient sample tables, in the given order."""
    if not patients:
        raise DataError("assemble needs at least one patient")
    d = patients[0].n_channels
    for p in patients[1:]:
        if p.n_channels != d:
            raise DataError(
                f"inconsistent channel counts: {d} vs {p.n_channels} "
                f"(patient {p.patient_id!r})"
            )
    tables = [extract_features(p, order=order, threshold=threshold) for p in patients]
    return SampleTable(
        layout=tables[0].layout,
        patient_ids=np.concatenate([t.patient_ids for t in tables]),
        voxel_index=np.concatenate([t.voxel_index for t in tables]),
        features=np.concatenate([t.features for t in tables]),
        y=np.concatenate([t.y for t in tables]),
        t=np.concatenate([t.t for t in tables]),
    )


def export_csv(table: SampleTable, path: str | Path) -> None:
    """Write the table as CSV with a one-line header naming every column."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.column_names())
        for i in range(len(table)):
            row = (
                [table.patient_ids[i], int(table.voxel_index[i])]
                + [repr(v) for v in table.features[i].tolist()]
                + [repr(float(table.y[i])), int(table.t[i])]
            )
            writer.writerow(row)
