"""Fixed-seed benchmark of mr2ct's `train` and `predict` commands.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train-classifier --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each workload is a closed loop in one process: one `mr2ct.cli.main([...])`
call at a time, as a user runs the CLI.  Set-up writes a training cohort and
held-out patients as phantoms drawn from `--seed`; the loop then repeats one
`train` followed by one `predict` per held-out patient until `--seconds` have
passed.  The workloads differ in sizes and train flags, which decide the layer
their time goes to.  BLAS runs on one thread.

The times `setup_s`, `train_s` and `predict_s` are medians of wall times
scaled to a reference host speed.  A fixed calibration kernel, which does
the kinds of work mr2ct does, is timed before every op and after the last,
and each op's wall time is multiplied by REFERENCE_CAL_S over the mean of the
calibrations just before and just after it.  On a shared 2-vCPU VM whose
speed switched between two levels 30% apart every few tens of seconds, this
cut the quartile spread of 35 s window medians of train and predict times
from 22-27% to 3-8%, while a change to mr2ct moves the scaled times as it
moves the wall times.  CPU time is no help there: it tracks wall time, so
the slow phases are contention, not steal.  The raw wall and CPU times stay
in the record and are printed.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it installs the span tracer of `tracing.py` and reports the
per-layer metrics instead, as medians over the train ops and the predict ops.
Every op is checked: a `train` must write the same model.json bytes on every
op of a run, and a `predict` must write finite values for every masked voxel,
the fill value everywhere else (set-up masks out a slab of every held-out
patient, so both paths run), and the same bytes for the same patient;
predict-batch must also stay within 15% of the phantom oracle's MAE.  Metric
names and units come from BENCHMARK.json.  The last stdout line is the result
JSON; the full record, with the environment block, bundle sha256s and each
op's wall and CPU time, is appended to `.bench_out/results.jsonl` and traced
spans go to `.bench_out/spans/`.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: one BLAS thread keeps timings steady on a
# shared box, and the trained bundles do not depend on the thread count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "mr2ct" / "cli.py").is_file():
    raise SystemExit(f"bench: mr2ct source not found at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mr2ct.cli  # noqa: E402
from mr2ct.mixture import MixtureModel  # noqa: E402
from mr2ct.phantom import oracle_predict_ct  # noqa: E402
from mr2ct.volume import read_volume  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402

BONE_HU = 100.0        # bone region of the quality metrics, as in the paper
HELDOUT_SEED_OFFSET = 1000  # held-out patients are drawn apart from the cohort
SETUPS = 15            # set-up repetitions per run; setup_s is their median
FILL_HU = -1024.0      # CT value every model is trained to write outside the mask
MASKED_OUT = 4         # set-up masks out the top 1/MASKED_OUT of each held-out volume
# Median calibration_s() on the reference host: a 2-vCPU x86-64 VM with
# Python 3.11, numpy 2.4 and OpenBLAS on one thread.
REFERENCE_CAL_S = 0.05

_CAL_RNG = np.random.default_rng(0)
_CAL_COLUMNS = _CAL_RNG.standard_normal((8192, 32))
_CAL_ROWS = _CAL_RNG.standard_normal((20000, 4))
_CAL_FORM = _CAL_RNG.standard_normal((4, 4))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: cohort sizes and train flags."""

    train_dims: int              # edge of the cubic training volumes
    train_patients: int
    heldout_dims: int            # edge of the held-out volumes that get predicted
    heldout_patients: int
    train_flags: tuple[str, ...]
    cohort_seed: int | None = None  # fixed training cohort and seed; None: --seed
    max_oracle_gap_pct: float | None = None  # quality check on the held-out MAE


WORKLOADS = {
    # Exact split search.  Second order is the paper's 108-feature layout.
    # Labelling at 40 HU cuts through soft tissue, so no tree node becomes
    # pure and every tree spends its whole split budget, as on real scans;
    # at 100 HU the phantom is separable and tree sizes swing with the seed.
    "train-classifier": Workload(
        train_dims=16, train_patients=2, heldout_dims=32, heldout_patients=6,
        train_flags=("--order", "second", "--trees", "3", "--max-splits", "24",
                     "--threshold-hu", "40", "--j-candidates", "1", "--em-restarts", "1",
                     "--fill-hu", str(FILL_HU)),
    ),
    # EM model selection with the paper's grid {5, 6} and 5 restarts.  EM is
    # capped at 25 iterations, below where any restart converges, so the
    # work per op does not swing with how fast a seed's data converges.
    "train-mixture": Workload(
        train_dims=16, train_patients=3, heldout_dims=48, heldout_patients=3,
        train_flags=("--order", "first", "--trees", "1", "--max-splits", "4",
                     "--em-max-iter", "25", "--fill-hu", str(FILL_HU)),
    ),
    # Tree routing, feature extraction and E[ct | mr] on held-out volumes 27x
    # the training size, with a 24-tree bundle at the paper's 100 HU labels.
    # Boosting on those separable labels grows trees whose size, and so train
    # time and routing depth, swing by 20% between cohorts, so the bundle is
    # trained on one fixed cohort, as a deployed model would be; the seed
    # still draws every predicted patient.
    "predict-batch": Workload(
        train_dims=16, train_patients=2, heldout_dims=48, heldout_patients=4,
        train_flags=("--order", "second", "--trees", "24", "--max-splits", "64",
                     "--j-candidates", "2", "--em-restarts", "2", "--fill-hu", str(FILL_HU)),
        cohort_seed=0, max_oracle_gap_pct=15.0,  # acceptance criterion 7
    ),
}

def calibration_s() -> float:
    """Wall time of a fixed kernel: column sorts and prefix sums as in split
    search, a pure-Python loop, and batched quadratic forms as in EM."""
    start = time.perf_counter()
    for column in _CAL_COLUMNS.T:
        np.cumsum(column[np.argsort(column, kind="stable")])
    total = 0
    for i in range(30000):
        total += i * i % 7
    for _ in range(10):
        np.exp(-0.5 * np.einsum("ij,jk,ik->i", _CAL_ROWS, _CAL_FORM, _CAL_ROWS))
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User plus system CPU time of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


@dataclass
class Quality:
    """Held-out MAE of one patient next to the phantom oracle's."""

    mae: float
    bone_mae: float
    oracle_mae: float
    ct_sha: str


@dataclass
class Session:
    """State of one benchmark run: ops attempted, failures, timings, spans."""

    workload: Workload
    seed: int
    work: Path
    tracer: Tracer | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    times: dict[str, list[float]] = field(
        default_factory=lambda: {"setup": [], "train": [], "predict": []}
    )
    cpu_times: dict[str, list[float]] = field(default_factory=lambda: {"train": [], "predict": []})
    calibrations: list[float] = field(default_factory=list)
    # index into `calibrations` of the calibration just before each timed op
    brackets: dict[str, list[int]] = field(
        default_factory=lambda: {"setup": [], "train": [], "predict": []}
    )
    traced_ops: dict[str, list[int]] = field(default_factory=lambda: {"train": [], "predict": []})
    bundle_sha: str | None = None
    quality: dict[str, Quality] = field(default_factory=dict)
    truth: dict[str, tuple] = field(default_factory=dict)

    def cli(self, argv: list, kind: str | None = None) -> bool:
        """Run one CLI op; time it into `kind` if given.  False if it failed."""
        argv = [str(a) for a in argv]
        op_id = self.attempted
        self.attempted += 1
        tracing = self.tracer is not None and kind is not None
        root = self.tracer.op(op_id) if tracing else contextlib.nullcontext({})
        with root as counts, contextlib.redirect_stdout(io.StringIO()):
            start, cpu_start = time.perf_counter(), cpu_seconds()
            code = mr2ct.cli.main(argv)
            elapsed, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        if code != 0:
            self.failures.append(f"op {op_id} {argv[0]} exited {code}")
            return False
        if kind is not None:
            self.record(kind, elapsed)
            self.cpu_times[kind].append(cpu)
        if tracing:
            counts["hashed_bytes"] = hashed_bytes(Path(argv[argv.index("--out") + 1]))
            self.traced_ops[kind].append(op_id)
        return True

    def calibrate(self) -> None:
        self.calibrations.append(calibration_s())

    def record(self, kind: str, wall: float) -> None:
        self.times[kind].append(wall)
        self.brackets[kind].append(len(self.calibrations) - 1)

    def scaled(self, kind: str) -> list[float]:
        """Wall times of `kind` at the reference host speed.

        Each op needs a calibration after it as well as before it.
        """
        cal = self.calibrations
        return [
            wall * 2.0 * REFERENCE_CAL_S / (cal[i] + cal[i + 1])
            for wall, i in zip(self.times[kind], self.brackets[kind])
        ]

    def train(self, cohort: Path, out: Path, seed: int) -> None:
        if not self.cli(["train", "--cohort", cohort, "--out", out, "--seed", seed,
                         *self.workload.train_flags], "train"):
            return
        digest = sha256(out / "model.json")
        if self.bundle_sha is None:
            self.bundle_sha = digest
        elif digest != self.bundle_sha:
            self.failures.append(f"model.json sha256 {digest} differs from {self.bundle_sha}")

    def predict(self, bundle: Path, patient: Path) -> None:
        out = self.work / "pred" / patient.name
        if not self.cli(["predict", "--model", bundle, "--patient", patient, "--out", out],
                        "predict"):
            return
        problem = self.check_prediction(patient, out)
        if problem:
            self.failures.append(f"predict {patient.name}: {problem}")

    def check_prediction(self, patient: Path, out: Path) -> str | None:
        if patient.name not in self.truth:
            self.truth[patient.name] = load_truth(patient)
        mask_idx, true_ct, oracle_mae = self.truth[patient.name]
        report = json.loads((out / "predict_report.json").read_text())
        if report["n_predicted"] != mask_idx.size:
            return f"n_predicted {report['n_predicted']} != mask count {mask_idx.size}"
        ct = read_volume(out / "ct_estimate.hdr").data
        if not np.all(np.delete(ct, mask_idx) == FILL_HU):
            return f"CT estimate outside the mask is not the fill value {FILL_HU}"
        pred = ct[mask_idx].astype(np.float64)
        if not np.all(np.isfinite(pred)):
            return "non-finite CT estimate"
        ct_sha = sha256(out / "ct_estimate.raw")
        seen = self.quality.get(patient.name)
        if seen is not None:
            return None if seen.ct_sha == ct_sha else "CT estimate differs from the first prediction"
        bone = true_ct > BONE_HU
        self.quality[patient.name] = Quality(
            mae=float(np.mean(np.abs(pred - true_ct))),
            bone_mae=float(np.mean(np.abs(pred[bone] - true_ct[bone]))),
            oracle_mae=oracle_mae,
            ct_sha=ct_sha,
        )
        return None


def hashed_bytes(out_dir: Path) -> int:
    """Bytes the CLI hashed for the manifest of an op's output directory."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return sum((out_dir / name).stat().st_size for name in manifest["artifacts"])


def load_truth(patient: Path) -> tuple[np.ndarray, np.ndarray, float]:
    """(masked voxel indices, true CT there, oracle MAE) of a phantom patient."""
    truth = json.loads((patient.parent / "truth.json").read_text())
    models = tuple(
        MixtureModel(
            weights=np.asarray(m["weights"]),
            means=np.asarray(m["means"]),
            covariances=np.asarray(m["covariances"]),
        )
        for m in truth["class_models"]
    )
    channels = tuple(read_volume(p) for p in sorted(patient.glob("mr*.hdr")))
    mask = read_volume(patient / "mask.hdr")
    labels = read_volume(patient / "true_labels.hdr")
    idx = np.flatnonzero(mask.data == 1.0)
    true_ct = read_volume(patient / "ct.hdr").data[idx].astype(np.float64)
    oracle = oracle_predict_ct(models, labels, channels, mask).data[idx].astype(np.float64)
    return idx, true_ct, float(np.mean(np.abs(oracle - true_ct)))


def set_up(s: Session, base: Path, train_seed: int) -> None:
    """Write the training cohort and the held-out patients under `base`."""
    w = s.workload
    for out, patients, dims, seed in (
        (base / "cohort", w.train_patients, w.train_dims, train_seed),
        (base / "heldout", w.heldout_patients, w.heldout_dims, s.seed + HELDOUT_SEED_OFFSET),
    ):
        if not s.cli(["phantom", "--out", out, "--patients", patients,
                      "--dims", f"{dims},{dims},{dims}", "--seed", seed]):
            raise RuntimeError(f"set-up failed: {s.failures[-1]}")


def mask_out_slab(patient: Path) -> None:
    """Zero the top z-slices of a patient's mask, which the phantom fills with ones."""
    raw = patient / "mask.raw"
    mask = np.fromfile(raw, dtype="<f4")
    mask[mask.size - mask.size // MASKED_OUT:] = 0.0  # x-fastest order: the tail is the top slab
    mask.tofile(raw)


def execute(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run the closed loop for `seconds`, and return the run record."""
    s = Session(workload=w, seed=seed, work=work, tracer=Tracer() if trace else None)
    train_seed = seed if w.cohort_seed is None else w.cohort_seed
    base = work / "setup"
    s.calibrate()
    for _ in range(SETUPS):
        shutil.rmtree(base, ignore_errors=True)
        start = time.perf_counter()
        set_up(s, base, train_seed)
        s.record("setup", time.perf_counter() - start)
        s.calibrate()
    patients = sorted(p for p in (base / "heldout").iterdir() if p.is_dir())
    for patient in patients:
        mask_out_slab(patient)
    bundle = work / "train"
    ops = [functools.partial(s.train, base / "cohort", bundle, train_seed)]
    ops += [functools.partial(s.predict, bundle / "model.json", p) for p in patients]

    with s.tracer.install() if trace else contextlib.nullcontext():
        deadline = time.perf_counter() + seconds
        for n, op in enumerate(itertools.cycle(ops), start=1):
            s.calibrate()
            op()
            if n >= len(ops) and time.perf_counter() >= deadline:
                break
        s.calibrate()

    if not s.times["train"] or not s.quality:
        raise RuntimeError(
            f"no train op, or no predict op that passed its checks: {s.failures[:3]}"
        )
    q = list(s.quality.values())
    mae = statistics.fmean(r.mae for r in q)
    oracle_mae = statistics.fmean(r.oracle_mae for r in q)
    oracle_gap_pct = 100.0 * (mae / oracle_mae - 1.0)
    if w.max_oracle_gap_pct is not None and oracle_gap_pct > w.max_oracle_gap_pct:
        s.failures.append(f"oracle gap {oracle_gap_pct:.2f}% exceeds {w.max_oracle_gap_pct}%")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if trace else "end_to_end"]
    if trace:
        metrics = layer_metrics(s.tracer.spans, s.traced_ops, [m["name"] for m in declared])
    else:
        metrics = {
            "setup_s": statistics.median(s.scaled("setup")),
            "train_s": statistics.median(s.scaled("train")),
            "predict_s": statistics.median(s.scaled("predict")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mae_hu": mae,
            "bone_mae_hu": statistics.fmean(r.bone_mae for r in q),
            "oracle_mae_ratio": mae / oracle_mae,
        }
    failed = len(s.failures)
    result = {
        "correct": failed == 0,
        "attempted": s.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return {
        "env": environment(),
        "bundle_sha256": s.bundle_sha,
        "oracle_gap_pct": oracle_gap_pct,
        "error_rate": failed / s.attempted,
        "failures": s.failures,
        "op_times": s.times,
        "op_scaled_times": {kind: s.scaled(kind) for kind in s.times},
        "op_cpu_times": s.cpu_times,
        "calibrations": s.calibrations,
        "result": result,
        "spans": {"ops": s.traced_ops, "spans": s.tracer.spans} if trace else None,
    }


def tail(times: list[float]) -> str:
    """Median and the highest percentile with at least ten values beyond it."""
    out = f"scaled median {statistics.median(times):.4g} s"
    pct = int(100 * (1 - 10 / len(times)))
    if pct > 50:
        out += f", p{pct} {statistics.quantiles(times, n=100)[pct - 1]:.4g} s"
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    try:
        record = execute(WORKLOADS[name], seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spans = record.pop("spans")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), **record}
    OUT.mkdir(exist_ok=True)
    with (OUT / "results.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if spans is not None:
        (OUT / "spans").mkdir(exist_ok=True)
        (OUT / "spans" / f"{name}-seed{seed}.json").write_text(json.dumps(spans))

    result = record["result"]
    print(f"workload {name} seed {seed} trace {int(trace)} env {json.dumps(record['env'])}")
    for metric, m in result["metrics"].items():
        print(f"{metric} {m['value']:.6g} {m['unit']}")
    for kind, scaled in record["op_scaled_times"].items():
        wall = statistics.median(record["op_times"][kind])
        print(f"{kind}: {len(scaled)} ops; {tail(scaled)}; median wall {wall:.4g} s")
    for kind, cpu in record["op_cpu_times"].items():
        print(f"{kind}: median CPU {statistics.median(cpu):.4g} s")
    print(f"host_speed {REFERENCE_CAL_S / statistics.median(record['calibrations']):.4g}"
          f" (reference calibration time over this run's median)")
    print(f"error_rate {record['error_rate']:.4g} ({result['failed']} of {result['attempted']} ops)")
    print(f"oracle_gap_pct {record['oracle_gap_pct']:.3f}")
    print(f"bundle_sha256 {record['bundle_sha256']}")
    for problem in record["failures"]:
        print(f"FAILED {problem}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
