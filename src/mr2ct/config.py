"""The run configuration, shared by the CLI and the library.

The fields of RunConfig are the only list of run keys, and RunConfig checks
them all when it is built: each key ``a_b`` is the flag ``--a-b``, and file
and flag values go through one parse chosen by the field's type.  The tree,
boosting and mixture layers take a RunConfig too, and read their parameters
from it under the same names.  Config files hold one ``key = value`` pair
per line; ``#`` starts a comment, and each value is checked on its own at
its line, so an error names the line.  Command-line flags override file values,
which override the defaults.  The environment variable MR2CT_CONFIG names a
default config file used when no --config flag is given.
"""

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .features import neighbor_offsets
from .labeling import DEFAULT_THRESHOLD_HU
from .volume import FLOAT32_MAX, regular_file_size

ENV_CONFIG = "MR2CT_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    threshold_hu: float = DEFAULT_THRESHOLD_HU
    order: str = "second"
    j_candidates: tuple[int, ...] = (5, 6)
    trees: int = 150
    max_splits: int = 400
    min_leaf: int = 5
    em_restarts: int = 5
    em_max_iter: int = 500
    em_tol: float = 1e-6
    window_hu: float = 20.0
    fill_hu: float = -1000.0
    gmm_max_rows: int = 0            # 0 = no cap; otherwise seeded subsample per class
    cv_folds: int = 10
    seed: int = 0

    def __post_init__(self):
        """Raise ConfigError, naming the key, on the first invalid field."""
        try:
            neighbor_offsets(self.order)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for key, least in (("trees", 1), ("max_splits", 1), ("min_leaf", 1), ("em_restarts", 1),
                           ("em_max_iter", 1), ("gmm_max_rows", 0), ("cv_folds", 2), ("seed", 0)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}")
        for key in ("em_tol", "window_hu"):
            if not 0 < getattr(self, key) < math.inf:  # NaN fails too
                raise ConfigError(f"{key} must be finite and > 0")
        if not math.isfinite(self.threshold_hu):
            raise ConfigError("threshold_hu must be finite")
        # The fill value lands in a float32 output volume, which must be finite.
        if not abs(self.fill_hu) <= FLOAT32_MAX:
            raise ConfigError(f"fill_hu must be finite in float32, got {self.fill_hu!r}")
        if len(self.j_candidates) == 0 or any(j < 1 for j in self.j_candidates):
            raise ConfigError("j_candidates must be a non-empty list of counts >= 1")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str) -> object:
    """Parse raw as the type of RunConfig field key: int, float, str, or else
    an int list separated by commas or spaces.  RunConfig checks the value."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind, raw = _FIELD_TYPES[key], raw.strip()
    if kind is str:
        return raw
    try:
        if kind in (int, float):
            return kind(raw)
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        name = {int: "an int", float: "a float"}.get(kind, "a list of ints")
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {name}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        try:
            values[key] = _parse_value(key, raw)
            RunConfig(**{key: values[key]})  # check each file value at its line
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
    return values


def load_run_config(
    config_path: str | Path | None = None, overrides: dict | None = None
) -> RunConfig:
    """Defaults, then config file, then overrides; validates the result.

    overrides maps config keys to unparsed strings (None = not given), which
    go through the same parse as file values."""
    values: dict[str, object] = {}
    if config_path is None:
        env = os.environ.get(ENV_CONFIG)
        config_path = env if env else None
    if config_path is not None:
        path = Path(config_path)
        regular_file_size(path, ConfigError, "config file")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        values.update(parse_config_text(text, str(path)))
    for key, raw in (overrides or {}).items():
        if raw is not None:
            values[key] = _parse_value(key, raw)
    return RunConfig(**values)
