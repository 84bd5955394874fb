"""The run-config schema: one flag per run key a subcommand reads, and any
valid config loads back equal from `key = value` lines and from command-line
flags."""

import argparse
import inspect
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mr2ct import (
    BoostingError,
    ConfigError,
    em_fit,
    rus_resample,
    select_model,
    train_rusboost,
    train_tree,
)
from mr2ct.cli import RUN_KEYS, _add_config_flags, build_parser
from mr2ct.config import RunConfig, load_run_config

FLOAT32_MAX = float(np.finfo(np.float32).max)
_grid = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

# A strategy per field, drawing only values that pass validation.
VALID = {
    "threshold_hu": st.floats(allow_nan=False, allow_infinity=False),
    "order": st.sampled_from(["first", "second"]),
    "j_candidates": _grid,
    "trees": st.integers(1, 10**6),
    "max_splits": st.integers(1, 10**6),
    "min_leaf": st.integers(1, 10**6),
    "rus_ratio": _positive,
    "em_restarts": st.integers(1, 100),
    "em_max_iter": st.integers(1, 10**6),
    "em_tol": _positive,
    "window_hu": _positive,
    "fill_hu": st.floats(-FLOAT32_MAX, FLOAT32_MAX),
    "gmm_max_rows": st.integers(0, 10**9),
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
    """Every field of cfg, as a config file or flags set it."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "run.cfg"


def test_strategy_covers_every_field():
    assert set(VALID) == {f.name for f in fields(RunConfig)}


def test_readme_lists_every_key():
    """The README's config table names exactly the RunConfig fields and, under
    "read by", the subcommands that take each; its key count sentences give
    the number of fields."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|") for line in table.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row[1])]
    names = [f.name for f in fields(RunConfig)]
    assert sorted(keys) == sorted(names)
    counts = re.findall(r"(?:takes the|holds these) (\d+) keys", readme)
    assert counts and all(int(c) == len(names) for c in counts)
    read_by = {key: {c.strip() for c in row[4].split(",")} for key, row in zip(keys, rows)}
    for command, run_keys in RUN_KEYS.items():
        assert {k for k, commands in read_by.items() if command in commands} == set(run_keys)


def test_every_field_has_one_flag():
    """Each subcommand has one flag per run key it reads, and some subcommand
    reads every RunConfig field."""
    for command, keys in RUN_KEYS.items():
        parser = argparse.ArgumentParser()
        _add_config_flags(parser, command)
        flags = {a.dest: a.option_strings for a in parser._actions
                 if a.dest not in ("help", "config")}
        assert flags == {k: ["--" + k.replace("_", "-")] for k in keys}
    assert set().union(*RUN_KEYS.values()) == {f.name for f in fields(RunConfig)}


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
    overrides = {}
    for command in ("train", "evaluate", "cv-classifier"):  # together they read every key
        keys = RUN_KEYS[command]
        flags = [f"--{k.replace('_', '-')}={_text(v)}" for k, v in _given(cfg).items()
                 if k in keys]
        args = build_parser().parse_args([command, "--cohort", "c", "--out", "o", *flags])
        overrides.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    assert load_run_config(cfg_path, overrides) == cfg


@pytest.mark.parametrize("build", [
    lambda: RunConfig(rus_ratio=float("nan")),
    lambda: RunConfig(em_tol=float("nan")),
    lambda: rus_resample(np.array([0, 1, 0, 1]), np.ones(4), float("nan"), seed=0),
], ids=["rus-ratio", "em-tol", "rus-resample-target-ratio"])
def test_library_rejects_nan(build):
    """Library callers get the NaN checks the CLI parse makes."""
    with pytest.raises((ConfigError, BoostingError), match="> 0"):
        build()


@pytest.mark.parametrize("fn", [train_tree, train_rusboost, em_fit, select_model])
def test_library_defaults_are_run_defaults(fn):
    """Each trained layer reads its parameters from a RunConfig that defaults
    to the run defaults, so a library call and a default run agree."""
    assert inspect.signature(fn).parameters["config"].default == RunConfig()
