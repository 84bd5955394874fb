"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file is a `.bench_out/results.jsonl` written by `run.py`, one run per
line.  For every workload the report prints each end-to-end metric's median
and quartiles on both sides, next to the unscaled medians of op wall times
(`<kind>_wall_s`), each per-layer time's median delta, and the tracing
overhead (traced minus untraced median op time, both scaled to the reference
host speed).  It is a report, not a gate: it always exits 0 when both files
parse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path



def load(path: str) -> dict:
    """{(workload, trace): {metric: [values over runs]}}."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        metrics = runs[(record["workload"], record["trace"])]
        for name, m in record["result"]["metrics"].items():
            metrics[name].append(m["value"])
        for kind, times in record.get("op_times", {}).items():
            metrics[f"{kind}_wall_s"].append(statistics.median(times))
        for kind, times in record.get("op_scaled_times", {}).items():
            metrics[f"{kind}_scaled_s"].append(statistics.median(times))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pct(base: float, new: float) -> str:
    return f"{100.0 * (new - base) / base:+.1f}%" if base else "n/a"


def overhead(runs: dict, workload: str, kind: str) -> str:
    """Median traced op time minus median untraced op time, both scaled."""
    traced = runs.get((workload, 1), {}).get(f"{kind}_scaled_s")
    plain = runs.get((workload, 0), {}).get(f"{kind}_scaled_s")
    if not traced or not plain:
        return "n/a"
    t, p = statistics.median(traced), statistics.median(plain)
    return f"{t - p:+.4f} s ({pct(p, t)})"


def report(base: dict, new: dict) -> list[str]:
    lines = []
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    for workload in workloads:
        lines.append(f"== {workload}")
        e2e_base = base.get((workload, 0), {})
        e2e_new = new.get((workload, 0), {})
        lines.append(f"  {'end-to-end':24s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s}  delta")
        for name in sorted(set(e2e_base) & set(e2e_new)):
            b, n = quartiles(e2e_base[name]), quartiles(e2e_new[name])
            lines.append(
                f"  {name:24s} {b[1]:12.5g} [{b[0]:.5g}, {b[2]:.5g}] (n={len(e2e_base[name])})"
                f" {n[1]:12.5g} [{n[0]:.5g}, {n[2]:.5g}] (n={len(e2e_new[name])})  {pct(b[1], n[1])}"
            )
        layer_base = base.get((workload, 1), {})
        layer_new = new.get((workload, 1), {})
        lines.append(f"  {'per-layer self time':24s} {'base':>12s} {'new':>12s} {'delta s':>10s}")
        for name in sorted(set(layer_base) & set(layer_new)):
            if not name.endswith("_s"):
                continue
            b, n = statistics.median(layer_base[name]), statistics.median(layer_new[name])
            lines.append(f"  {name:24s} {b:12.5g} {n:12.5g} {n - b:+10.4f}  {pct(b, n)}")
        for kind in ("train", "predict"):
            lines.append(f"  {kind} tracing overhead: base {overhead(base, workload, kind)}, "
                         f"new {overhead(new, workload, kind)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(report(load(args[0]), load(args[1]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
