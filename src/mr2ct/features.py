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
export_csv's.  Nothing copies them into a matrix.  Every column is one
padded channel read at a fixed flat offset from each row's voxel, so a
PaddedSource holds the float32 pads, each row's flat index into them and each
column's (channel, offset) pair, and gathers a column for any subset of rows
on demand.  Training reads every input from it: the trees all columns, the
mixtures the raw ones.  Prediction routes the trees over it and regresses on
its raw columns, which extract_feature_matrix also returns as a PaddedSource.

Only assemble makes a SampleTable: it lays every patient's pads out on the
cohort's largest strides, so one offset per column serves every row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
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
    def n_combined(self) -> int:
        return self.n_channels * (1 + len(self.offsets))


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
    source: PaddedSource     # every feature column, raw then neighbor
    y: np.ndarray            # (n,) CT intensity in HU
    t: np.ndarray            # (n,) int8 class label

    def __len__(self) -> int:
        return self.y.shape[0]

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
    for.  tree.as_source reads an ndarray as a PaddedSource with one channel
    per column, each pad a float64 column at delta 0, and base[i] = i.
    """

    pads: tuple[np.ndarray, ...]  # per channel, flat padded grid, float32 (float64 from as_source)
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
        """Values of column f at the rows with these bases, in the pads' dtype."""
        return self.pads[self.channel[f]].take(bases + self.delta[f])

    def rows(self, idx: np.ndarray) -> "PaddedSource":
        return replace(self, base=self.base[idx])


def extract_feature_matrix(
    channels: Sequence[Volume],
    mask: Volume,
    order: str,
    strides: tuple[int, int] | None = None,
) -> tuple[np.ndarray, PaddedSource, PaddedSource]:
    """(voxel_index, raw, source) for masked voxels.

    Used by training and prediction.  source reads every feature column,
    raw then neighbor columns, from pads laid out on the y and z strides
    (sy, sz), by default the patient's own (nx + 2, (nx + 2)(ny + 2)); raw
    is source's view of its d raw columns, sharing its pads and bases.
    """
    flat_idx = mask_indices(mask)
    nx, ny, nz = mask.dims
    sy, sz = strides or (nx + 2, (nx + 2) * (ny + 2))
    padded_ids = np.arange(sz * (nz + 2)).reshape(nz + 2, sz // sy, sy)
    base = padded_ids[1:-1, 1 : ny + 1, 1 : nx + 1].reshape(-1)[flat_idx]
    widths = ((1, 1), (1, sz // sy - ny - 1), (1, sy - nx - 1))
    offsets = neighbor_offsets(order)
    d = len(channels)
    channel = np.concatenate([np.arange(d), np.repeat(np.arange(d), len(offsets))])
    delta = np.array([0] * d + [dz * sz + dy * sy + dx for dz, dy, dx in offsets] * d)
    pads = tuple(np.pad(vol.grid(), widths, mode="edge").reshape(-1) for vol in channels)
    source = PaddedSource(pads=pads, base=base, channel=channel, delta=delta)
    return flat_idx, replace(source, channel=channel[:d], delta=delta[:d]), source


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
    sy = max(p.mask.dims[0] for p in patients) + 2
    strides = (sy, sy * (max(p.mask.dims[1] for p in patients) + 2))
    pad_starts = np.cumsum([0] + [strides[1] * (p.mask.dims[2] + 2) for p in patients])
    pads = np.empty((d, pad_starts[-1]), dtype=np.float32)
    voxel_index, base = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=np.float64)
    for p, lo, hi, at in zip(patients, starts[:-1], starts[1:], pad_starts):
        voxel_index[lo:hi], _, source = extract_feature_matrix(
            p.mr_channels, p.mask, order, strides
        )
        pads[:, at : at + source.pads[0].size] = source.pads
        base[lo:hi] = source.base + at
        y[lo:hi] = p.ct.data[voxel_index[lo:hi]]
    return SampleTable(
        layout=layout,
        patient_ids=tuple(p.patient_id for p in patients),
        starts=starts,
        voxel_index=voxel_index,
        source=replace(source, pads=tuple(pads), base=base),
        y=y,
        t=label_tissue_many(y, threshold),
    )


def export_csv(table: SampleTable, path: str | Path) -> None:
    """Write the table as CSV with a one-line header naming every column."""
    path = Path(path)
    source = table.source
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.column_names())
        for pid, lo, hi in zip(table.patient_ids, table.starts[:-1], table.starts[1:]):
            bases = source.base[lo:hi]
            block = np.column_stack([source.column(f, bases) for f in range(source.shape[1])])
            for i, values in enumerate(block.tolist(), start=lo):
                writer.writerow(
                    [pid, int(table.voxel_index[i])]
                    + [repr(v) for v in values]
                    + [repr(float(table.y[i])), int(table.t[i])]
                )
