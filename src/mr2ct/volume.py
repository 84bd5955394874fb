"""Volumetric data model and the on-disk volume file format.

A volume is a dense 3-D scalar grid stored flat in x-fastest order, i.e.
flat index = ix + nx * (iy + ny * iz).  On disk a volume is a pair of files:
a key-value text header and a raw little-endian float32 payload.

Header example::

    dims: 16 16 16
    spacing: 1.33 1.33 1.33
    dtype: float32
    byteorder: little-endian
    data: ct.raw

The ``data`` entry is the payload filename, a bare name resolved relative to
the header's directory.  Reading rejects a ``data`` entry that names another
directory and, as every Volume does, a NaN or infinite value.  Header and
payload must be regular files, and a payload whose size does not match the
dims is rejected before any of it is read.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, Mr2ctError, VolumeFormatError

HEADER_SUFFIX = ".hdr"
RAW_SUFFIX = ".raw"
_REQUIRED_KEYS = ("dims", "spacing", "dtype", "byteorder", "data")
FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class Volume:
    """Dense 3-D scalar grid with voxel spacing.

    data is a flat float32 array of length nx*ny*nz in x-fastest order.
    Every value must be finite, because a NaN would go right at every tree
    split without a trace.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        if len(dims) != 3 or any(n < 1 for n in dims):
            raise DataError(f"volume dims must be three counts >= 1, got {dims}")
        if len(spacing) != 3 or any(not (s > 0) for s in spacing):
            raise DataError(f"voxel spacing must be strictly positive, got {spacing}")
        data = np.ascontiguousarray(self.data, dtype=np.float32).reshape(-1)
        if data.size != dims[0] * dims[1] * dims[2]:
            raise DataError(
                f"data length {data.size} does not match dims {dims} "
                f"({dims[0] * dims[1] * dims[2]} voxels)"
            )
        bad = int(np.count_nonzero(~np.isfinite(data)))
        if bad:
            raise DataError(f"{bad} non-finite voxel values")
        data.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "data", data)

    @property
    def n_voxels(self) -> int:
        return self.data.size

    def grid(self) -> np.ndarray:
        """View shaped (nz, ny, nx); grid[iz, iy, ix] is the voxel value."""
        nx, ny, nz = self.dims
        return self.data.reshape(nz, ny, nx)

    def same_geometry(self, other: "Volume") -> bool:
        return self.dims == other.dims and self.spacing == other.spacing


def volume_like(vol: Volume, data: np.ndarray) -> Volume:
    """New volume sharing vol's dims and spacing."""
    return Volume(dims=vol.dims, spacing=vol.spacing, data=data)


def check_mask(mask: Volume, owner: str = "") -> None:
    """Raise DataError, its message prefixed by owner, unless mask holds only 0 and 1."""
    bad = np.unique(mask.data[(mask.data != 0.0) & (mask.data != 1.0)])
    if bad.size:
        raise DataError(f"{owner}mask must contain exactly 0 or 1, found {bad[:5].tolist()}")


def mask_indices(mask: Volume) -> np.ndarray:
    """Flat voxel indices with mask == 1, ascending."""
    return np.flatnonzero(mask.data == 1.0)


@dataclass(frozen=True)
class PatientDataset:
    """One patient's co-registered volumes: d MR channels, CT target, binary mask."""

    patient_id: str
    mr_channels: tuple[Volume, ...]
    ct: Volume
    mask: Volume

    def __post_init__(self):
        channels = tuple(self.mr_channels)
        if not channels:
            raise DataError(f"patient {self.patient_id!r}: no MR channels")
        for i, vol in enumerate(channels):
            if not vol.same_geometry(self.ct):
                raise DataError(
                    f"patient {self.patient_id!r}: MR channel {i} dims/spacing "
                    f"{vol.dims}/{vol.spacing} do not match CT {self.ct.dims}/{self.ct.spacing}"
                )
        if not self.mask.same_geometry(self.ct):
            raise DataError(
                f"patient {self.patient_id!r}: mask dims/spacing do not match CT"
            )
        check_mask(self.mask, f"patient {self.patient_id!r}: ")
        object.__setattr__(self, "mr_channels", channels)
        object.__setattr__(self, "patient_id", str(self.patient_id))

    @property
    def n_channels(self) -> int:
        return len(self.mr_channels)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.ct.dims


def write_volume(header_path: str | Path, vol: Volume) -> tuple[Path, Path]:
    """Write a volume as header + raw payload next to each other; return
    (header path, payload path)."""
    header_path = Path(header_path)
    if header_path.suffix != HEADER_SUFFIX:
        header_path = header_path.with_suffix(HEADER_SUFFIX)
    raw_path = header_path.with_suffix(RAW_SUFFIX)
    lines = [
        f"dims: {vol.dims[0]} {vol.dims[1]} {vol.dims[2]}",
        f"spacing: {vol.spacing[0]!r} {vol.spacing[1]!r} {vol.spacing[2]!r}",
        "dtype: float32",
        "byteorder: little-endian",
        f"data: {raw_path.name}",
    ]
    header_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    raw_path.write_bytes(vol.data.astype("<f4", copy=False).tobytes())
    return header_path, raw_path


def regular_file_size(path: Path, error: type[Mr2ctError], what: str) -> int:
    """Size in bytes of path, which must be a regular file or a symlink to
    one; anything else raises error before the file is opened, since open()
    on a FIFO waits for a writer and a device can read without end."""
    try:
        st = os.stat(path)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not stat.S_ISREG(st.st_mode):
        raise error(f"{what} {path} is not a regular file")
    return st.st_size


def _parse_header(path: Path) -> dict[str, str]:
    regular_file_size(path, VolumeFormatError, "header")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise VolumeFormatError(f"cannot read header {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise VolumeFormatError(f"{path}:{lineno}: expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key in entries:
            raise VolumeFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    missing = [k for k in _REQUIRED_KEYS if k not in entries]
    if missing:
        raise VolumeFormatError(f"{path}: missing header keys {missing}")
    return entries


def read_volume(header_path: str | Path) -> Volume:
    """Read a volume from its header file."""
    header_path = Path(header_path)
    entries = _parse_header(header_path)
    try:
        dims = tuple(int(tok) for tok in entries["dims"].split())
        spacing = tuple(float(tok) for tok in entries["spacing"].split())
    except ValueError as exc:
        raise VolumeFormatError(f"{header_path}: unparsable dims/spacing: {exc}") from exc
    if len(dims) != 3 or len(spacing) != 3:
        raise VolumeFormatError(f"{header_path}: dims and spacing need three entries")
    if entries["dtype"] != "float32":
        raise VolumeFormatError(f"{header_path}: unsupported dtype {entries['dtype']!r}")
    if entries["byteorder"] != "little-endian":
        raise VolumeFormatError(
            f"{header_path}: unsupported byteorder {entries['byteorder']!r}"
        )
    name = entries["data"]
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise VolumeFormatError(
            f"{header_path}: data entry {name!r} must name a file in the header's directory"
        )
    raw_path = header_path.parent / name
    size = regular_file_size(raw_path, VolumeFormatError, "payload")
    expected = dims[0] * dims[1] * dims[2] * 4
    if size != expected:  # checked before any byte is read
        raise VolumeFormatError(
            f"{raw_path}: payload is {size} bytes, expected {expected} for dims {dims}"
        )
    try:
        payload = raw_path.read_bytes()
    except OSError as exc:
        raise VolumeFormatError(f"cannot read payload {raw_path}: {exc}") from exc
    try:
        return Volume(dims=dims, spacing=spacing, data=np.frombuffer(payload, dtype="<f4"))
    except DataError as exc:
        raise VolumeFormatError(f"{header_path}: {exc}") from exc


def load_patient(
    mr_paths: Sequence[str | Path],
    ct_path: str | Path,
    mask_path: str | Path,
    patient_id: str,
) -> PatientDataset:
    """Load and validate one patient's volumes from disk.

    All headers must agree on dims and spacing; the mask must be exactly
    binary.  Violations raise DataError, malformed files VolumeFormatError.
    """
    if not mr_paths:
        raise DataError(f"patient {patient_id!r}: need at least one MR channel path")
    channels = tuple(read_volume(p) for p in mr_paths)
    ct = read_volume(ct_path)
    mask = read_volume(mask_path)
    return PatientDataset(patient_id=patient_id, mr_channels=channels, ct=ct, mask=mask)
