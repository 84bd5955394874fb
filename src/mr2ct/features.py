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
with one voxel of edge replication.

The feature columns are the d raw channel columns first, then the
channel-major neighbor columns: the classifier's column order and
export_csv's.  Extraction never copies them into a matrix.  Every column is
one padded channel read at a fixed flat offset from each row's voxel, so a
PaddedSource holds the float32 pads, each row's flat index into them and each
column's (channel, offset) pair, and gathers a column for any subset of rows
on demand.  Tree routing reads it directly; the mixture regression reads the
raw float64 matrix of the channels at the masked voxels.

Only assemble makes a SampleTable: it allocates the cohort table once and
fills it patient by patient from each patient's source.
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
        """CSV header: x{c} per raw channel, then xs{c}_o{k} per neighbor column."""
        d, n_offsets = self.layout.n_channels, len(self.layout.offsets)
        return (
            ["patient_id", "voxel_index"]
            + [f"x{c}" for c in range(d)]
            + [f"xs{c}_o{k}" for c in range(d) for k in range(n_offsets)]
            + ["y", "t"]
        )


@dataclass(frozen=True)
class PaddedSource:
    """The feature columns of masked voxels, read from edge-padded channels.

    Row i of column f is pads[channel[f]][base[i] + delta[f]], where base[i]
    is the row's voxel's flat index in the padded grid and, for column f at
    offset (dz, dy, dx), delta[f] = dz (nx+2)(ny+2) + dy (nx+2) + dx; a raw
    column has offset 0.  shape and size are those of the matrix it stands
    for.
    """

    pads: tuple[np.ndarray, ...]  # per channel, flat float32 padded grid
    base: np.ndarray     # (n,) int64 flat index into the pads
    channel: np.ndarray  # (n_combined,) channel of each column
    delta: np.ndarray    # (n_combined,) flat offset of each column

    @property
    def shape(self) -> tuple[int, int]:
        return self.base.size, self.delta.size

    @property
    def size(self) -> int:
        return self.base.size * self.delta.size

    @property
    def extent(self) -> int:
        """Bases lie in [0, extent), the padded grid's voxel count."""
        return self.pads[0].size

    def column(self, f: int, bases: np.ndarray) -> np.ndarray:
        """float32 values of column f at the rows with these bases."""
        return self.pads[self.channel[f]].take(bases + self.delta[f])


def extract_feature_matrix(
    channels: Sequence[Volume],
    mask: Volume,
    order: str,
) -> tuple[np.ndarray, np.ndarray, PaddedSource]:
    """(voxel_index, raw, source) for masked voxels.

    Used by both training extraction (which also has a CT volume) and
    prediction (which does not).  raw is the (n, d) float64 matrix of the
    channels at the masked voxels; source reads every feature column, raw
    then neighbor columns, from the padded channels.
    """
    flat_idx = mask_indices(mask)
    nx, ny, nz = mask.dims
    sy, sz = nx + 2, (nx + 2) * (ny + 2)
    padded_ids = np.arange(sz * (nz + 2)).reshape(nz + 2, ny + 2, nx + 2)
    base = padded_ids[1:-1, 1:-1, 1:-1].reshape(-1)[flat_idx]
    offsets = neighbor_offsets(order)
    d = len(channels)
    channel = np.concatenate([np.arange(d), np.repeat(np.arange(d), len(offsets))])
    delta = np.array([0] * d + [dz * sz + dy * sy + dx for dz, dy, dx in offsets] * d)
    raw = np.empty((flat_idx.size, d), dtype=np.float64, order="F")
    for c, vol in enumerate(channels):
        raw[:, c] = vol.data[flat_idx]
    pads = tuple(np.pad(vol.grid(), 1, mode="edge").reshape(-1) for vol in channels)
    return flat_idx, raw, PaddedSource(pads=pads, base=base, channel=channel, delta=delta)


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
        voxel_index[lo:hi], _, source = extract_feature_matrix(p.mr_channels, p.mask, order)
        for f in range(layout.n_combined):
            features[lo:hi, f] = source.column(f, source.base)
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
