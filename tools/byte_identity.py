"""Hash every output of a fixed set of mr2ct runs, to compare two checkouts.

Usage, from the root of a checkout:

    python3 tools/byte_identity.py OUT_DIR

OUT_DIR must be new or empty.  The script writes phantoms and run outputs
under it and prints one `sha256  path` line per file, sorted by path, with
paths relative to OUT_DIR.  Run it on two checkouts into two directories and
compare the listings with one `diff`; an empty diff means every byte agrees.

The runs, all through `mr2ct.cli.main` in this process, on the mr2ct source
of the checkout that holds this script:

- phantoms: a training cohort of mixed dims (two 16^3 patients and one
  12x14x10) and a held-out 40x36x44 patient, whose top slab is masked out
  as the benchmark does, so prediction writes the fill value too;
- for each benchmark workload's train flags (bench/run.py, WORKLOADS) at
  seeds 0-2: `train` on the cohort, `predict` of the held-out patient, and
  `cv-classifier --cv-folds 3` with the flags that command takes;
- `evaluate` once, with the first workload's flags that it takes;
- the paper-default `train`: 150 trees on `phantom --seed 7` at 3x32^3,
  train seed 0 (about 10 s on 2 vCPUs).

Every file is hashed except manifest.json, which records absolute paths and
the checksums of the files listed beside it.  Importing bench/run.py pins
BLAS to one thread before numpy loads, as the benchmark runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import run as bench  # noqa: E402  (bench/ is not a package; sets the BLAS thread count)

import mr2ct.cli  # noqa: E402

SEEDS = (0, 1, 2)
CV_FOLDS = 3


def cli(*argv) -> None:
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = mr2ct.cli.main(argv)
    if code != 0:
        raise SystemExit(f"`mr2ct {' '.join(argv)}` exited {code}")


def flags_for(command: str, flags: tuple[str, ...]) -> list[str]:
    """The `--key value` pairs of flags that command takes as run keys."""
    keys = mr2ct.cli.RUN_KEYS[command]
    pairs = zip(flags[::2], flags[1::2])
    return [tok for flag, value in pairs if flag[2:].replace("-", "_") in keys
            for tok in (flag, value)]


def make_phantoms(out: Path) -> tuple[Path, Path]:
    """(cohort dir, held-out patient dir) under out."""
    cohort = out / "cohort"
    cli("phantom", "--out", cohort, "--patients", 2, "--dims", "16,16,16", "--seed", 0)
    cli("phantom", "--out", out / "odd", "--patients", 1, "--dims", "12,14,10", "--seed", 1)
    (out / "odd" / "phantom000").rename(cohort / "odd")
    cli("phantom", "--out", out / "heldout", "--patients", 1, "--dims", "40,36,44", "--seed", 2)
    patient = out / "heldout" / "phantom000"
    bench.mask_out_slab(patient)
    return cohort, patient


def run_all(out: Path) -> None:
    cohort, patient = make_phantoms(out / "phantoms")
    runs = out / "runs"
    for name, workload in bench.WORKLOADS.items():
        for seed in SEEDS:
            tag = runs / f"{name}-seed{seed}"
            cli("train", "--cohort", cohort, "--out", tag / "train", "--seed", seed,
                *workload.train_flags)
            cli("predict", "--model", tag / "train" / "model.json", "--patient", patient,
                "--out", tag / "predict")
            cli("cv-classifier", "--cohort", cohort, "--out", tag / "cv", "--seed", seed,
                "--cv-folds", CV_FOLDS, *flags_for("cv-classifier", workload.train_flags))
    first = next(iter(bench.WORKLOADS.values()))
    cli("evaluate", "--cohort", cohort, "--out", runs / "evaluate", "--seed", 0,
        *flags_for("evaluate", first.train_flags))
    paper = out / "phantoms" / "paper"
    cli("phantom", "--out", paper, "--patients", 3, "--dims", "32,32,32", "--seed", 7)
    cli("train", "--cohort", paper, "--out", runs / "paper-default", "--seed", 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="new or empty output directory")
    args = parser.parse_args()
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    run_all(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
