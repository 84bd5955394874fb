"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's default pytest collection.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import run  # puts mr2ct's source on sys.path
import tracing
from mr2ct.volume import Volume, read_volume, write_volume

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(workload: run.Workload) -> run.Workload:
    return dataclasses.replace(
        workload, train_dims=12, heldout_dims=12, heldout_patients=1
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One loop cycle of every workload, untraced and traced."""
    records = {}
    for name, workload in run.WORKLOADS.items():
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            records[name, trace] = run.execute(tiny(workload), 3, 0.0, trace, work)
    return records


def test_workloads_match_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(smoke, name, trace):
    result = smoke[name, trace]["result"]
    assert result["correct"], smoke[name, trace]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    # end-to-end values and per-layer times are never 0, so none reads the same on every run
    assert all(m["value"] > 0 for m in result["metrics"].values() if not trace or m["unit"] == "s")


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_children_fit_inside_their_parent_span(smoke, name):
    spans = smoke[name, True]["spans"]["spans"]
    assert spans
    own = tracing.self_times(spans)
    for i, s in enumerate(spans):
        assert own[i] >= 0.0, s
        if s[tracing.PARENT] >= 0:
            parent = spans[s[tracing.PARENT]]
            assert parent[tracing.START] <= s[tracing.START] <= s[tracing.END] <= parent[tracing.END]
            assert parent[tracing.OP] == s[tracing.OP]


def test_predict_ops_fit_no_tree(smoke):
    traced = smoke["predict-batch", True]["spans"]
    predict_ops = set(traced["ops"]["predict"])
    names = {s[tracing.NAME] for s in traced["spans"] if s[tracing.OP] in predict_ops}
    assert "tree.route" in names and "tree.fit" not in names
    m = smoke["predict-batch", True]["result"]["metrics"]
    assert m["predict.mixture.cond_rows"]["value"] == m["predict.features.rows"]["value"]


def test_tracer_restores_the_bindings():
    before = [owner.__dict__[attr] for owner, attr, _, _ in tracing.BINDINGS]
    with tracing.Tracer().install():
        pass
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.BINDINGS] == before


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, {"hashed_bytes": 5}],
        ["pipeline.predict", 1.0, 9.0, 0, 0, {}],
        ["mixture.cond", 2.0, 5.0, 1, 0, {"rows": 7}],
        ["tree.route", 5.0, 6.0, 1, 0, {"rows": 3}],
        ["cli.main", 20.0, 24.0, -1, 1, {}],
        ["tree.fit", 21.0, 22.0, 4, 1, {"rows": 9, "splits": 2}],
    ]
    assert tracing.self_times(spans) == [2.0, 4.0, 3.0, 1.0, 3.0, 1.0]
    names = [m["name"] for m in DECLARED["per_layer"]]
    m = tracing.layer_metrics(spans, {"predict": [0], "train": [1]}, names)
    assert set(m) == set(names)
    assert m["predict.cli.self_s"] == 2.0 and m["predict.cli.hashed_bytes"] == 5
    assert m["predict.mixture.cond_s"] == 3.0 and m["predict.mixture.cond_rows"] == 7
    assert m["predict.tree.route_rows"] == 3 and m["predict.op_s"] == 10.0
    assert m["train.tree.fit_calls"] == 1 and m["train.tree.fit_rows"] == 9
    assert m["train.tree.route_s"] == 0.0 and m["train.op_s"] == 4.0


def test_scaled_times_divide_by_the_bracketing_calibrations():
    s = run.Session(workload=run.WORKLOADS["train-mixture"], seed=0, work=Path("."))
    s.calibrations = [run.REFERENCE_CAL_S]
    s.record("train", 3.0)
    s.calibrations += [3.0 * run.REFERENCE_CAL_S]  # the host ran at half speed on average
    s.record("predict", 1.0)
    s.calibrations += [run.REFERENCE_CAL_S]
    assert s.scaled("train") == pytest.approx([1.5]) and s.scaled("predict") == pytest.approx([0.5])


def test_mask_out_slab_zeroes_the_top_slices(tmp_path):
    write_volume(tmp_path / "mask.hdr", Volume((2, 2, 4), (1.0, 1.0, 1.0), np.ones(16)))
    run.mask_out_slab(tmp_path)
    grid = read_volume(tmp_path / "mask.hdr").grid()
    assert np.all(grid[:3] == 1.0) and np.all(grid[3] == 0.0)


def test_compare_reports_medians_and_layer_deltas(tmp_path, capsys):
    def record(trace, metrics, train_scaled):
        return json.dumps({
            "workload": "w", "trace": trace, "op_scaled_times": {"train": train_scaled},
            "result": {"metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}},
        })

    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text("\n".join([record(0, {"train_s": 2.0}, [3.0]),
                               record(0, {"train_s": 4.0}, [3.0]),
                               record(1, {"train.tree.fit_s": 1.0}, [3.2, 3.3, 3.4])]))
    new.write_text("\n".join([record(0, {"train_s": 1.5}, [1.5]),
                              record(1, {"train.tree.fit_s": 0.5}, [1.6])]))
    assert compare.main([str(base), str(new)]) == 0
    out = capsys.readouterr().out
    assert "train_s" in out and "-50.0%" in out and "+0.3000 s" in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "predict-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
