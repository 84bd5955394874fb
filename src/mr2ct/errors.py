"""Exception hierarchy shared by all modules.

The CLI maps each branch of this hierarchy to a distinct exit code, so new
exceptions should subclass the most specific existing branch.
"""


class Mr2ctError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(Mr2ctError):
    """Invalid configuration value or unparsable config file."""


class VolumeFormatError(Mr2ctError):
    """Malformed volume header or payload on disk."""


class DataError(Mr2ctError):
    """Dataset invariant violation: dimension mismatch, non-binary mask,
    empty mask, inconsistent channel counts across patients."""


class FeatureLayoutError(Mr2ctError):
    """Feature layout of an input does not match what a model was trained on."""


class ModelError(Mr2ctError):
    """Structurally invalid model or invalid use of a model (dimension
    mismatch, non-positive-definite covariance)."""


class FitError(Mr2ctError):
    """Estimation failure: too few samples, degenerate fit with no
    recoverable components."""


class SelectionError(FitError):
    """Every candidate in a model-order selection failed to fit."""


class BoostingError(Mr2ctError):
    """Boosting failure: no retained learners, a resample with no minority draw."""
