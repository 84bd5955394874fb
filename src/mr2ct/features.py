"""Neighborhood feature extraction and the cohort sample table.

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

Only assemble makes a SampleTable: it allocates the cohort table once and
fills it patient by patient, so no two patients' matrices exist at once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .labeling import DEFAULT_THRESHOLD_HU, label_tissue_many
from .volume import PatientDataset, Volume, mask_indices

FIRST_ORDER = "first"
SECOND_ORDER = "second"


def neighbor_offsets(order: str) -> tuple[tuple[int, int, int], ...]:
    """(dz, dy, dx) offsets for the given neighborhood order, lexicographic:
    the axis neighbors (first order) or every shell neighbor (second)."""
    if order not in (FIRST_ORDER, SECOND_ORDER):
        raise ValueError(f"neighborhood order must be 'first' or 'second', got {order!r}")
    reach = 1 if order == FIRST_ORDER else 3  # largest |dz| + |dy| + |dx|
    steps = (-1, 0, 1)
    return tuple((dz, dy, dx) for dz in steps for dy in steps for dx in steps
                 if 0 < abs(dz) + abs(dy) + abs(dx) <= reach)


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
    """Flat per-voxel sample table, built only by assemble().

    Patient i's rows are starts[i]:starts[i + 1], in ascending voxel index;
    patients follow the order given to assemble().
    """

    layout: FeatureLayout
    patient_ids: tuple[str, ...]  # one per patient
    starts: np.ndarray       # (patients + 1,) int64 row offsets
    voxel_index: np.ndarray  # (n,) int64 flat index, x-fastest
    features: np.ndarray     # (n, d + d * n_offsets) raw then neighbor intensities
    y: np.ndarray            # (n,) CT intensity in HU
    t: np.ndarray            # (n,) int8 class label

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
    flat_idx = mask_indices(mask)
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


def assemble(
    patients: Sequence[PatientDataset],
    order: str = SECOND_ORDER,
    threshold: float = DEFAULT_THRESHOLD_HU,
) -> SampleTable:
    """One sample row per mask-1 voxel of each patient, in the given order.

    A mask that selects no voxels raises DataError: silently returning no
    rows would hide upstream masking bugs."""
    if not patients:
        raise DataError("assemble needs at least one patient")
    d = patients[0].n_channels
    layout = FeatureLayout(n_channels=d, order=order)
    sizes = [0]
    for p in patients:
        if p.n_channels != d:
            raise DataError(
                f"inconsistent channel counts: {d} vs {p.n_channels} "
                f"(patient {p.patient_id!r})"
            )
        sizes.append(mask_indices(p.mask).size)
        if sizes[-1] == 0:
            raise DataError(f"patient {p.patient_id!r}: mask selects no voxels")
    starts = np.cumsum(sizes, dtype=np.int64)
    n = int(starts[-1])
    voxel_index = np.empty(n, dtype=np.int64)
    features = np.empty((n, layout.n_combined), dtype=np.float64, order="F")
    y = np.empty(n, dtype=np.float64)
    for p, lo, hi in zip(patients, starts[:-1], starts[1:]):
        # Unpacked straight into the table, the raw view onto its own columns:
        # a name for a returned array would keep this patient's matrix alive.
        voxel_index[lo:hi], features[lo:hi, :d], features[lo:hi] = extract_feature_matrix(
            p.mr_channels, p.mask, order
        )
        y[lo:hi] = p.ct.data[voxel_index[lo:hi]]
    return SampleTable(
        layout=layout,
        patient_ids=tuple(p.patient_id for p in patients),
        starts=starts,
        voxel_index=voxel_index,
        features=features,
        y=y,
        t=label_tissue_many(y, threshold),
    )


def export_csv(table: SampleTable, path: str | Path) -> None:
    """Write the table as CSV with a one-line header naming every column."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.column_names())
        row_ids = np.repeat(table.patient_ids, np.diff(table.starts))
        for i in range(len(table)):
            row = (
                [row_ids[i], int(table.voxel_index[i])]
                + [repr(v) for v in table.features[i].tolist()]
                + [repr(float(table.y[i])), int(table.t[i])]
            )
            writer.writerow(row)
