"""Span tracing around mr2ct's layer boundaries, installed from outside.

`Tracer.install()` replaces the module bindings that mr2ct's callers use
(for example `mr2ct.boosting.train_tree`, which `train_rusboost` calls)
with wrappers that record one span per call, and restores them on exit.
Nothing in `src/` is changed.  A span is
`[name, start, end, parent index, op id, counts]`; spans stay in memory
until the benchmark writes them out.

A layer is the part of a span name before the first dot.  A span's self
time is its duration minus the durations of its direct children, which
never overlap because mr2ct runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import mr2ct.boosting
import mr2ct.cli
import mr2ct.features
import mr2ct.mixture
import mr2ct.pipeline
import mr2ct.volume
from mr2ct.boosting import BoostedEnsemble
from mr2ct.tree import DecisionTree

NAME, START, END, PARENT, OP, COUNTS = range(6)


def _volume_bytes(args, kwargs, result) -> dict:
    return {"bytes": result.data.nbytes}


def _written_bytes(args, kwargs, result) -> dict:
    return {"bytes": args[1].n_voxels * 4}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(args[1] if len(args) > 1 else args[0]).stat().st_size}


def _feature_counts(args, kwargs, result) -> dict:
    flat_idx, x_raw, x_nei = result
    return {"rows": flat_idx.size, "bytes": (x_raw.size + x_nei.size) * 8}


def _fit_counts(args, kwargs, result) -> dict:
    return {"rows": args[0].shape[0], "splits": result.n_splits}


def _route_counts(args, kwargs, result) -> dict:
    return {"rows": result.shape[0]}


def _cond_counts(args, kwargs, result) -> dict:
    return {"rows": result[0].shape[0]}


def _boost_counts(args, kwargs, result) -> dict:
    return {"rounds": len(result.rounds), "learners": result.n_learners}


def _em_counts(args, kwargs, result) -> dict:
    report = result[1]
    return {
        "iters": report.n_iter,
        "converged": int(report.converged),
        "failed_restarts": sum(not math.isfinite(s) for s in report.restart_scores),
    }


# (owner, attribute, span name, counter).  Each owner is the module whose
# global the caller looks up, so every call is wrapped exactly once.
BINDINGS = (
    (mr2ct.cli, "load_patient", "volume.load", None),
    (mr2ct.cli, "read_volume", "volume.read", _volume_bytes),
    (mr2ct.volume, "read_volume", "volume.read", _volume_bytes),
    (mr2ct.cli, "write_volume", "volume.write", _written_bytes),
    (mr2ct.cli, "train_pipeline", "pipeline.train", None),
    (mr2ct.cli, "predict_ct", "pipeline.predict", None),
    (mr2ct.cli, "save_model", "pipeline.save", _file_bytes),
    (mr2ct.cli, "load_model", "pipeline.load", _file_bytes),
    (mr2ct.pipeline, "assemble", "features.assemble", None),
    (mr2ct.pipeline, "extract_feature_matrix", "features.extract", _feature_counts),
    (mr2ct.features, "extract_feature_matrix", "features.extract", _feature_counts),
    (mr2ct.pipeline, "select_model", "mixture.select", None),
    (mr2ct.mixture, "em_fit", "mixture.em_fit", _em_counts),
    (mr2ct.mixture, "conditional_expectation_many", "mixture.cond", _cond_counts),
    (mr2ct.pipeline, "conditional_expectation_many", "mixture.cond", _cond_counts),
    (mr2ct.pipeline, "train_rusboost", "boosting.train", _boost_counts),
    (mr2ct.boosting, "rus_resample", "boosting.resample", None),
    (mr2ct.boosting, "train_tree", "tree.fit", _fit_counts),
    (BoostedEnsemble, "scores", "boosting.score", None),
    (DecisionTree, "leaf_index", "tree.route", _route_counts),
)


class Tracer:
    """Collects spans for the ops run between `install()` and its exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; yields the span's counts dict."""
        self._op = op_id
        index = self._open("cli.main")
        try:
            yield self.spans[index][COUNTS]
        finally:
            self._close(index)
            self._op = -1

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index][COUNTS] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        saved = []
        try:
            for owner, attr, name, counter in BINDINGS:
                original = owner.__dict__[attr]  # KeyError: the binding moved
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def op_layer_metrics(spans: list[list]) -> dict[int, dict[str, float]]:
    """Every per-layer metric of every op, keyed by op id."""
    own = self_times(spans)
    sec: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    calls: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    cnt: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    root_s: dict[int, float] = {}
    for i, s in enumerate(spans):
        name, op = s[NAME], s[OP]
        if s[PARENT] < 0:
            root_s[op] = s[END] - s[START]
        sec[op][name] += own[i]
        calls[op][name] += 1
        for key, value in s[COUNTS].items():
            cnt[op][f"{name}.{key}"] += value

    out = {}
    for op, root in root_s.items():
        t, n, c = sec[op], calls[op], cnt[op]
        fits, em_calls = n["tree.fit"], n["mixture.em_fit"]
        out[op] = {
            "tree.fit_s": t["tree.fit"],
            "tree.fit_calls": fits,
            "tree.fit_rows": c["tree.fit.rows"],
            "tree.splits": c["tree.fit.splits"],
            "tree.route_s": t["tree.route"],
            "tree.route_rows": c["tree.route.rows"],
            "boosting.self_s": t["boosting.train"],
            "boosting.resample_s": t["boosting.resample"],
            "boosting.score_s": t["boosting.score"],
            "boosting.rounds": c["boosting.train.rounds"],
            "boosting.retained_ratio": c["boosting.train.learners"] / fits if fits else 0.0,
            "mixture.select_s": t["mixture.select"],
            "mixture.em_fit_s": t["mixture.em_fit"],
            "mixture.em_fit_calls": em_calls,
            "mixture.em_iters": c["mixture.em_fit.iters"],
            "mixture.em_converged_ratio": (
                c["mixture.em_fit.converged"] / em_calls if em_calls else 0.0
            ),
            "mixture.em_failed_restarts": c["mixture.em_fit.failed_restarts"],
            "mixture.cond_s": t["mixture.cond"],
            "mixture.cond_rows": c["mixture.cond.rows"],
            "features.extract_s": t["features.assemble"] + t["features.extract"],
            "features.rows": c["features.extract.rows"],
            "features.matrix_bytes": c["features.extract.bytes"],
            "volume.read_s": t["volume.load"] + t["volume.read"],
            "volume.read_bytes": c["volume.read.bytes"],
            "volume.write_s": t["volume.write"],
            "volume.write_bytes": c["volume.write.bytes"],
            "pipeline.self_s": t["pipeline.train"] + t["pipeline.predict"],
            "pipeline.save_s": t["pipeline.save"],
            "pipeline.load_s": t["pipeline.load"],
            "pipeline.bundle_bytes": c["pipeline.save.bytes"] + c["pipeline.load.bytes"],
            "cli.self_s": t["cli.main"],
            "cli.hashed_bytes": c["cli.main.hashed_bytes"],
            "op_s": root,
        }
    return out


def layer_metrics(spans: list[list], ops: dict[str, list[int]], names: list[str]) -> dict[str, float]:
    """Each "<kind>.<metric>" in `names`: its median over the ops of that kind."""
    per_op = op_layer_metrics(spans)
    out = {}
    for name in names:
        kind, metric = name.split(".", 1)
        out[name] = statistics.median(per_op[op][metric] for op in ops[kind])
    return out
