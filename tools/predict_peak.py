"""Peak traced memory and median time of `predict_ct`, to compare two checkouts.

Usage, from the root of a checkout:

    python3 tools/predict_peak.py OUT_DIR

OUT_DIR must be new or empty.  The script writes phantoms and two model
bundles under it through `mr2ct.cli.main`, then, for each case, loads the
bundle and the patient and prints one line: the case, its masked rows, the
`tracemalloc` peak of one `predict_ct` call in MB, and the median wall time
of REPEATS untraced calls.  The peak counts what numpy allocates inside the
call, not the loaded bundle and volumes.

The cases, on the mr2ct source of the checkout that holds this script:

- predict-batch: the benchmark's predict-batch bundle (bench/run.py,
  WORKLOADS: its 2x16^3 cohort drawn from seed 0, its train flags, train
  seed 0) predicting held-out patient 0 of bench seed 0, a 48^3 phantom
  whose top quarter is masked out as the benchmark does;
- paper-default: the paper-default `train` of tools/byte_identity.py (150
  trees on `phantom --seed 7` at 3x32^3, train seed 0; about 10 s on 2
  vCPUs) predicting one 80^3 phantom of seed 8, fully masked.

Importing tools/byte_identity.py, which imports bench/run.py, pins BLAS to
one thread before numpy loads, as the benchmark runs.
"""

from __future__ import annotations

import argparse
import statistics
import time
import tracemalloc
from pathlib import Path

# First, so that bench/run.py pins BLAS before numpy loads.  A script's own
# directory is on sys.path, so tools/byte_identity.py imports as a module.
from byte_identity import bench, cli

import mr2ct.cli
from mr2ct import load_model, predict_ct
from mr2ct.volume import read_volume

REPEATS = 5


def make_cases(out: Path) -> list[tuple[str, Path, Path]]:
    """(case, model.json, patient dir) of each case, written under out."""
    workload = bench.WORKLOADS["predict-batch"]
    dims = f"{workload.train_dims},{workload.train_dims},{workload.train_dims}"
    cli("phantom", "--out", out / "batch-cohort", "--patients", workload.train_patients,
        "--dims", dims, "--seed", workload.cohort_seed)
    cli("train", "--cohort", out / "batch-cohort", "--out", out / "batch-train",
        "--seed", workload.cohort_seed, *workload.train_flags)
    edge = workload.heldout_dims
    cli("phantom", "--out", out / "batch-heldout", "--patients", 1,
        "--dims", f"{edge},{edge},{edge}", "--seed", bench.HELDOUT_SEED_OFFSET)
    batch_patient = out / "batch-heldout" / "phantom000"
    bench.mask_out_slab(batch_patient)

    cli("phantom", "--out", out / "paper-cohort", "--patients", 3, "--dims", "32,32,32",
        "--seed", 7)
    cli("train", "--cohort", out / "paper-cohort", "--out", out / "paper-train", "--seed", 0)
    cli("phantom", "--out", out / "paper-heldout", "--patients", 1, "--dims", "80,80,80",
        "--seed", 8)
    return [
        ("predict-batch", out / "batch-train" / "model.json", batch_patient),
        ("paper-default", out / "paper-train" / "model.json",
         out / "paper-heldout" / "phantom000"),
    ]


def measure(bundle: Path, patient: Path) -> tuple[int, int, float]:
    """(masked rows, traced peak bytes, median seconds) of predict_ct."""
    model = load_model(bundle)
    channels = tuple(read_volume(p) for p in sorted(patient.glob(f"{mr2ct.cli.MR_PREFIX}*.hdr")))
    mask = read_volume(patient / "mask.hdr")
    tracemalloc.start()
    try:
        result = predict_ct(model, channels, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        predict_ct(model, channels, mask)
        times.append(time.perf_counter() - start)
    return result.n_predicted, peak, statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="new or empty output directory")
    args = parser.parse_args()
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    for case, bundle, patient in make_cases(out):
        rows, peak, median_s = measure(bundle, patient)
        print(f"{case}: {rows} rows, peak {peak / 1e6:.2f} MB "
              f"({peak / rows:.1f} B/row), median {median_s:.3f} s of {REPEATS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
