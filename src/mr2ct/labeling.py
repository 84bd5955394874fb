"""First-layer tissue labels from observed CT intensity.

Voxels at or below the threshold (default 100 HU) are class 0 (non-bone);
voxels above it are class 1 (bone, the minority class).
"""

import math

import numpy as np

DEFAULT_THRESHOLD_HU = 100.0
N_CLASSES = 2
NON_BONE = 0
BONE = 1


def label_tissue(y: float, threshold: float = DEFAULT_THRESHOLD_HU) -> int:
    """Class label for one CT intensity: 0 if y <= threshold, else 1."""
    if not math.isfinite(y):
        raise ValueError(f"CT intensity must be finite, got {y}")
    return NON_BONE if y <= threshold else BONE


def label_tissue_many(y: np.ndarray, threshold: float = DEFAULT_THRESHOLD_HU) -> np.ndarray:
    """Vectorized label_tissue; returns an int8 array of 0/1."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise ValueError("CT intensities must all be finite")
    return (y > threshold).astype(np.int8)


def minority_label(labels: np.ndarray) -> int:
    """The least frequent label present; ties go to the larger label, since
    label 1 (bone) is the designated minority."""
    values, counts = np.unique(labels, return_counts=True)
    return int(values[counts == counts.min()].max())
