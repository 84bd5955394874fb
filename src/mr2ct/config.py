"""Flat key-value run configuration for the CLI.

The fields of RunConfig are the only list of run keys: each key ``a_b`` is
the flag ``--a-b``, and file and flag values go through one parse chosen by
the field's type.  Config files hold one ``key = value`` pair per line;
``#`` starts a comment.  Command-line flags override file values, which
override the defaults.  The environment variable MR2CT_CONFIG names a
default config file used when no --config flag is given.
"""

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .boosting import BoostConfig
from .errors import ConfigError
from .mixture import EmConfig
from .pipeline import PipelineConfig
from .tree import TreeConfig

ENV_CONFIG = "MR2CT_CONFIG"


@dataclass
class RunConfig:
    threshold_hu: float = 100.0
    order: str = "second"
    j_candidates: tuple[int, ...] = (5, 6)
    j_candidates_0: tuple[int, ...] | None = None
    j_candidates_1: tuple[int, ...] | None = None
    trees: int = 150
    max_splits: int = 400
    min_leaf: int = 5
    rus_ratio: float = 1.0
    em_restarts: int = 5
    em_max_iter: int = 500
    em_tol: float = 1e-6
    selection_criterion: str = "mse"
    window_hu: float = 20.0
    fill_hu: float = -1000.0
    gmm_max_rows: int = 0
    classifier_cv_folds: int = 0
    cv_folds: int = 10
    seed: int = 0

    def pipeline_config(self) -> PipelineConfig:
        grid0 = self.j_candidates_0 or self.j_candidates
        grid1 = self.j_candidates_1 or self.j_candidates
        try:
            return PipelineConfig(
                threshold_hu=self.threshold_hu,
                neighborhood_order=self.order,
                j_candidates=(tuple(grid0), tuple(grid1)),
                selection_criterion=self.selection_criterion,
                em=EmConfig(
                    max_iter=self.em_max_iter,
                    rel_tol=self.em_tol,
                    n_restarts=self.em_restarts,
                ),
                tree=TreeConfig(max_splits=self.max_splits, min_leaf=self.min_leaf),
                boost=BoostConfig(n_learners=self.trees, target_ratio=self.rus_ratio),
                fill_hu=self.fill_hu,
                gmm_max_rows=self.gmm_max_rows,
                classifier_cv_folds=self.classifier_cv_folds,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str) -> object:
    """Parse raw as the type of RunConfig field key: int, finite float, str,
    or else an int list separated by commas or spaces."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind, raw = _FIELD_TYPES[key], raw.strip()
    if kind is str:
        return raw
    try:
        if kind in (int, float):
            value = kind(raw)
        else:
            value = tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        name = {int: "an int", float: "a finite float"}.get(kind, "a list of ints")
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {name}")
    return value


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
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(path.read_text(encoding="utf-8"), str(path)))
    for key, raw in (overrides or {}).items():
        if raw is not None:
            values[key] = _parse_value(key, raw)
    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.cv_folds < 2:
        raise ConfigError("cv_folds must be >= 2")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.window_hu <= 0:
        raise ConfigError("window_hu must be positive")
    for key in ("j_candidates", "j_candidates_0", "j_candidates_1"):
        grid = getattr(cfg, key)
        if grid is not None and (len(grid) == 0 or any(j < 1 for j in grid)):
            raise ConfigError(f"{key} must be a non-empty list of counts >= 1")
    cfg.pipeline_config()  # surfaces the remaining range errors
