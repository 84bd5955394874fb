"""The run-config schema: one flag per RunConfig field, and any valid config
loads back equal from `key = value` lines and from command-line flags."""

import argparse
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mr2ct.cli import _add_config_flags, build_parser
from mr2ct.config import RunConfig, load_run_config

FLOAT32_MAX = float(np.finfo(np.float32).max)
_grid = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

# A strategy per field, drawing only values that pass validation.
VALID = {
    "threshold_hu": st.floats(allow_nan=False, allow_infinity=False),
    "order": st.sampled_from(["first", "second"]),
    "j_candidates": _grid,
    "j_candidates_0": st.none() | _grid,
    "j_candidates_1": st.none() | _grid,
    "trees": st.integers(1, 10**6),
    "max_splits": st.integers(1, 10**6),
    "min_leaf": st.integers(1, 10**6),
    "rus_ratio": _positive,
    "em_restarts": st.integers(1, 100),
    "em_max_iter": st.integers(1, 10**6),
    "em_tol": _positive,
    "selection_criterion": st.sampled_from(["mse", "mae"]),
    "window_hu": _positive,
    "fill_hu": st.floats(-FLOAT32_MAX, FLOAT32_MAX),
    "gmm_max_rows": st.integers(0, 10**9),
    "classifier_cv_folds": st.integers(0, 100),
    "cv_folds": st.integers(2, 100),
    "seed": st.integers(0, 2**32 - 1),
}
run_configs = st.builds(RunConfig, **VALID)


def _text(value) -> str:
    """A value as the config parser reads it; repr round-trips floats."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _given(cfg: RunConfig) -> dict:
    """The fields of cfg that a config file or a flag has to set."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if getattr(cfg, f.name) is not None}


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "run.cfg"


def test_strategy_covers_every_field():
    assert set(VALID) == {f.name for f in fields(RunConfig)}


def test_every_field_has_one_flag():
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    flags = {a.dest: a.option_strings for a in parser._actions if a.dest not in ("help", "config")}
    assert flags == {f.name: ["--" + f.name.replace("_", "-")] for f in fields(RunConfig)}


@settings(max_examples=100, deadline=None)
@given(cfg=run_configs)
def test_config_file_round_trip(cfg, cfg_path):
    cfg_path.write_text("".join(f"{k} = {_text(v)}\n" for k, v in _given(cfg).items()))
    assert load_run_config(cfg_path) == cfg


@settings(max_examples=100, deadline=None)
@given(cfg=run_configs)
def test_flag_round_trip(cfg, cfg_path):
    cfg_path.write_text("")  # shields the test from MR2CT_CONFIG
    # --key=value, since argparse takes a lone "-1e-05" for an option
    flags = [f"--{k.replace('_', '-')}={_text(v)}" for k, v in _given(cfg).items()]
    args = build_parser().parse_args(["train", "--cohort", "c", "--out", "o", *flags])
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    assert load_run_config(cfg_path, overrides) == cfg
