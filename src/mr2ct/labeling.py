"""First-layer tissue labels from observed CT intensity.

Voxels at or below the threshold (default 100 HU) are class 0 (non-bone);
voxels above it are class 1 (bone, the minority class).
"""

import numpy as np

DEFAULT_THRESHOLD_HU = 100.0
N_CLASSES = 2


def label_tissue_many(y: np.ndarray, threshold: float = DEFAULT_THRESHOLD_HU) -> np.ndarray:
    """int8 class labels of CT intensities: 0 where y <= threshold, else 1."""
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise ValueError("CT intensities must all be finite")
    return (y > threshold).astype(np.int8)


def minority_label(labels: np.ndarray) -> int:
    """The least frequent label present; ties go to the larger label, since
    label 1 (bone) is the designated minority."""
    values, counts = np.unique(labels, return_counts=True)
    return int(values[counts == counts.min()].max())
