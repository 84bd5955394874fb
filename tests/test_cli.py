import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mr2ct
from mr2ct.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_FIT,
    EXIT_LAYOUT,
    EXIT_OK,
    EXIT_USAGE,
    RUN_KEYS,
    main,
)
from mr2ct.config import RunConfig
from mr2ct.volume import read_volume

FAST_CLASSIFIER = [
    "--order", "first",
    "--trees", "4",
    "--max-splits", "12",
    "--min-leaf", "5",
]
FAST = [
    *FAST_CLASSIFIER,
    "--em-restarts", "2",
    "--em-max-iter", "100",
    "--j-candidates", "1,2",
]


def _drop_last_regressor_channel(bundle):
    """Regressors one dimension short of the layout, still valid mixtures."""
    for entry in bundle["regressors"]:
        entry["means"] = [m[:-1] for m in entry["means"]]
        entry["covariances"] = [[row[:-1] for row in c[:-1]] for c in entry["covariances"]]


def _set_alphas(value):
    def edit(bundle):
        for learner in bundle["classifier"]["learners"]:
            learner["alpha"] = value
    return edit


def _add_label(trees):
    """A third label with zero confidence at every leaf, on the given trees."""
    for tree in trees:
        tree["confidence"] = [None if row is None else row + [0.0]
                              for row in tree["confidence"]]


def _three_label_classifier(bundle):
    bundle["classifier"]["n_labels"] = 3
    _add_label(lr["tree"] for lr in bundle["classifier"]["learners"])


def _canonical(bundle) -> str:
    """Bundle text as save_model writes it, so that a corruption reaches its
    own check and not the loader's saves-back-to-the-same-bytes check."""
    return json.dumps(bundle, sort_keys=True, separators=(",", ":"))


NOT_SAVED_BACK = "does not save back"


def _edited(edit):
    """Bundle-text corruption that applies edit to the parsed bundle dict."""
    def corrupt(text):
        bundle = json.loads(text)
        edit(bundle)
        return _canonical(bundle)
    return corrupt


def _split_node_confidence(bundle):
    tree = bundle["classifier"]["learners"][0]["tree"]
    assert tree["feature"][0] != -1 and tree["confidence"][0] is None
    tree["confidence"][0] = [0.5, 0.5]


def run_cli(*argv, env=None, timeout=60):
    """The CLI run in a subprocess under a timeout, so a regression that
    hangs or overflows the stack fails the test instead of the suite."""
    src = str(Path(mr2ct.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", "import sys; from mr2ct.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    rc = main([
        "phantom", "--out", str(out), "--patients", "3",
        "--dims", "12,12,12", "--seed", "1",
    ])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, cohort_dir):
    out = tmp_path_factory.mktemp("model")
    rc = main([
        "train", "--cohort", str(cohort_dir), "--out", str(out), "--seed", "7", *FAST,
    ])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def predict_dir(tmp_path_factory, cohort_dir, model_dir):
    out = tmp_path_factory.mktemp("pred")
    rc = main([
        "predict", "--model", str(model_dir / "model.json"),
        "--patient", str(cohort_dir / "phantom002"), "--out", str(out),
    ])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def evaluate_dir(tmp_path_factory, cohort_dir):
    out = tmp_path_factory.mktemp("eval")
    rc = main([
        "evaluate", "--cohort", str(cohort_dir), "--out", str(out), "--seed", "2", *FAST,
    ])
    assert rc == EXIT_OK
    return out


@pytest.fixture(scope="module")
def cv_dir(tmp_path_factory, cohort_dir):
    out = tmp_path_factory.mktemp("cv")
    rc = main([
        "cv-classifier", "--cohort", str(cohort_dir), "--out", str(out),
        "--cv-folds", "3", "--seed", "2", *FAST_CLASSIFIER,
    ])
    assert rc == EXIT_OK
    return out


class TestPhantom:
    def test_writes_cohort_and_truth(self, cohort_dir):
        patients = sorted(p.name for p in cohort_dir.iterdir() if p.is_dir())
        assert patients == ["phantom000", "phantom001", "phantom002"]
        for name in patients:
            pdir = cohort_dir / name
            assert (pdir / "ct.hdr").exists()
            assert (pdir / "mask.hdr").exists()
            assert (pdir / "true_labels.hdr").exists()
            assert len(list(pdir.glob("mr*.hdr"))) == 4
        truth = json.loads((cohort_dir / "truth.json").read_text())
        assert len(truth["class_models"]) == 2

    def test_manifest_checksums(self, cohort_dir, model_dir, predict_dir, evaluate_dir,
                                cv_dir):
        """Every command's manifest lists exactly the files under --out, with
        their digests."""
        for command, out in [("phantom", cohort_dir), ("train", model_dir),
                             ("predict", predict_dir), ("evaluate", evaluate_dir),
                             ("cv-classifier", cv_dir)]:
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["command"] == command
            files = {str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()}
            assert set(manifest["artifacts"]) == files - {"manifest.json"}
            for rel, digest in manifest["artifacts"].items():
                data = (out / rel).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("flag, value, code", [
        ("--dims", "3,a,3", EXIT_CONFIG),
        ("--dims", "0,4,4", EXIT_DATA),
        ("--noise-scale", "nan", EXIT_DATA),
        ("--channels", "0", EXIT_DATA),
        ("--channels", "-2", EXIT_DATA),
    ])
    def test_bad_phantom_argument_exit_code(self, tmp_path, flag, value, code, capsys):
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--patients", "1",
                   f"{flag}={value}"])
        assert rc == code
        assert capsys.readouterr().err.count("\n") == 1

    def test_volumes_readable(self, cohort_dir):
        vol = read_volume(cohort_dir / "phantom000" / "ct.hdr")
        assert vol.dims == (12, 12, 12)


class TestTrain:
    def test_outputs(self, model_dir):
        assert (model_dir / "model.json").exists()
        report = json.loads((model_dir / "train_report.json").read_text())
        assert report["n_patients"] == 3
        assert len(report["selection"]) == 2
        manifest = json.loads((model_dir / "manifest.json").read_text())
        assert "model.json" in manifest["artifacts"]

    def test_byte_identical_reruns(self, tmp_path, cohort_dir):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            rc = main([
                "train", "--cohort", str(cohort_dir), "--out", str(out),
                "--seed", "3", *FAST,
            ])
            assert rc == EXIT_OK
        assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()

    def test_byte_identical_across_blas_threads(self, tmp_path, cohort_dir):
        """The bundle does not depend on how many threads BLAS runs."""
        src = str(Path(mr2ct.__file__).resolve().parents[1])
        bundles = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run(
                [sys.executable, "-c", "import sys; from mr2ct.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "train", "--cohort", str(cohort_dir),
                 "--out", str(out), "--seed", "3", *FAST],
                env=env, check=True, timeout=300,
            )
            bundles.append((out / "model.json").read_bytes())
        assert bundles[0] == bundles[1]

    def test_seed_changes_bundle(self, tmp_path, cohort_dir, model_dir):
        out = tmp_path / "other-seed"
        rc = main([
            "train", "--cohort", str(cohort_dir), "--out", str(out),
            "--seed", "8", *FAST,
        ])
        assert rc == EXIT_OK
        assert (out / "model.json").read_bytes() != (model_dir / "model.json").read_bytes()

    def test_missing_cohort(self, tmp_path):
        rc = main(["train", "--cohort", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "out")])
        assert rc == EXIT_DATA


class TestPredict:
    def test_predicts_volumes(self, cohort_dir, predict_dir):
        estimate = read_volume(predict_dir / "ct_estimate.hdr")
        truth = read_volume(cohort_dir / "phantom002" / "ct.hdr")
        assert estimate.dims == truth.dims
        mae = np.abs(estimate.data - truth.data).mean()
        assert mae < 100.0
        labels = read_volume(predict_dir / "labels.hdr")
        assert set(np.unique(labels.data)) <= {0.0, 1.0}

    @pytest.mark.parametrize("flag", ["--fill-hu=0", "--trees=7", "--order=first",
                                      "--config=run.cfg"])
    def test_run_key_flag_is_usage_error(self, tmp_path, cohort_dir, model_dir, flag, capsys):
        """predict takes its settings from the bundle, so it has no run-key flags."""
        rc = main([
            "predict", "--model", str(model_dir / "model.json"),
            "--patient", str(cohort_dir / "phantom002"), "--out", str(tmp_path / "out"), flag,
        ])
        assert rc == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_ignores_config_env_and_records_no_config(self, tmp_path, cohort_dir, model_dir,
                                                      predict_dir, monkeypatch):
        """predict reads no config file, and its manifest records no config."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trees = 0\n")
        monkeypatch.setenv("MR2CT_CONFIG", str(cfg))
        out = tmp_path / "out"
        rc = main([
            "predict", "--model", str(model_dir / "model.json"),
            "--patient", str(cohort_dir / "phantom002"), "--out", str(out),
        ])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["artifacts", "command", "inputs"]
        assert manifest == json.loads((predict_dir / "manifest.json").read_text())

    def test_manifest_names_its_inputs(self, cohort_dir, model_dir, predict_dir):
        """The manifest names the bundle, with its checksum, and the patient;
        artifacts lists only what predict wrote."""
        inputs = json.loads((predict_dir / "manifest.json").read_text())["inputs"]
        bundle = model_dir / "model.json"
        assert inputs == {
            "model": str(bundle.resolve()),
            "model_sha256": hashlib.sha256(bundle.read_bytes()).hexdigest(),
            "patient": str((cohort_dir / "phantom002").resolve()),
        }

    def test_channel_mismatch_exit_code(self, tmp_path, cohort_dir, model_dir):
        patient = cohort_dir / "phantom000"
        stripped = tmp_path / "stripped"
        stripped.mkdir()
        for name in ("mr0", "mr1", "mr2"):  # one channel short
            for ext in (".hdr", ".raw"):
                (stripped / (name + ext)).write_bytes(
                    (patient / (name + ext)).read_bytes()
                )
        for ext in (".hdr", ".raw"):
            (stripped / ("mask" + ext)).write_bytes((patient / ("mask" + ext)).read_bytes())
        rc = main([
            "predict", "--model", str(model_dir / "model.json"),
            "--patient", str(stripped), "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_LAYOUT

    @pytest.mark.parametrize("child, value", [("left", 0), ("left", "last")])
    def test_malformed_tree_exit_code(self, tmp_path, cohort_dir, model_dir, child, value,
                                      capsys):
        # left[0] = 0 would make routing cycle forever if loading accepted it;
        # left[0] = n_nodes - 1 puts the right child beyond the last node.
        bundle = json.loads((model_dir / "model.json").read_text())
        tree = bundle["classifier"]["learners"][0]["tree"]
        assert tree["feature"][0] != -1
        tree[child][0] = len(tree["feature"]) - 1 if value == "last" else value
        (tmp_path / "model.json").write_text(_canonical(bundle))
        rc = main([
            "predict", "--model", str(tmp_path / "model.json"),
            "--patient", str(cohort_dir / "phantom002"), "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_FIT
        err = capsys.readouterr().err
        assert "child ids must exceed" in err and NOT_SAVED_BACK not in err

    @pytest.mark.parametrize("corrupt", [
        _edited(lambda b: b.pop("classifier")),
        _edited(lambda b: b.update(seed="seven")),
        _edited(lambda b: b.update(classifier=[])),
        _edited(lambda b: b.update(format_version=1)),
        _edited(lambda b: b.update(format_version=2)),
        _edited(lambda b: b.update(format_version=3)),
        _edited(lambda b: b.update(format_version=4)),
        lambda text: text[: len(text) // 2],
        _edited(lambda b: b["layout"].update(order="second")),
        _edited(_drop_last_regressor_channel),
        _edited(_set_alphas(2.0)),
        _edited(_set_alphas(float("nan"))),
        _edited(lambda b: b["regressors"].pop()),
        _edited(_three_label_classifier),
        _edited(lambda b: _add_label([b["classifier"]["learners"][0]["tree"]])),
        _edited(lambda b: b["layout"].update(n_channels=0)),
        _edited(lambda b: b.update(fill_hu=float("nan"))),
        _edited(lambda b: b.update(fill_hu=1e39)),
        _edited(lambda b: b.update(fill_hu="-1024")),
        _edited(lambda b: b.update(config={"seed": 0})),
        _edited(lambda b: b["classifier"]["learners"][0]["tree"].update(right=[-1])),
    ], ids=["no-classifier", "non-integer-seed", "classifier-not-object",
            "format-version-1", "format-version-2", "format-version-3", "format-version-4",
            "truncated",
            "layout-not-classifier-width", "regressor-dim-not-layout",
            "alpha-above-one", "alpha-nan", "one-regressor-class", "three-label-classifier",
            "tree-labels-not-ensemble", "layout-no-channels", "fill-hu-nan", "fill-hu-1e39",
            "fill-hu-string", "stale-config-key", "stale-tree-key"])
    def test_malformed_bundle_exit_code(self, tmp_path, cohort_dir, model_dir, corrupt, capsys):
        text = (model_dir / "model.json").read_text()
        (tmp_path / "model.json").write_text(corrupt(text))
        rc = main([
            "predict", "--model", str(tmp_path / "model.json"),
            "--patient", str(cohort_dir / "phantom002"), "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_FIT
        err = capsys.readouterr().err
        assert "estimation error" in err and NOT_SAVED_BACK not in err

    @pytest.mark.parametrize("corrupt", [
        _edited(lambda b: b["classifier"].update(rounds=[])),
        _edited(lambda b: b["classifier"]["learners"][0].update(stale=1)),
        _edited(_split_node_confidence),
        _edited(lambda b: b["classifier"]["learners"][0].update(alpha="0.5")),
        _edited(lambda b: b.update(seed="3")),
        _edited(lambda b: b["classifier"].update(n_labels=2.7)),
        lambda text: json.dumps(json.loads(text), indent=2, sort_keys=True),
    ], ids=["stale-classifier-key", "stale-learner-key", "split-node-confidence",
            "alpha-string", "seed-string", "n-labels-fraction", "pretty-printed"])
    def test_bundle_not_saved_back_exit_code(self, tmp_path, cohort_dir, model_dir, corrupt,
                                             capsys):
        """The loader's backstop: a bundle that builds a model but is not the
        text saving that model writes."""
        text = (model_dir / "model.json").read_text()
        (tmp_path / "model.json").write_text(corrupt(text))
        rc = main([
            "predict", "--model", str(tmp_path / "model.json"),
            "--patient", str(cohort_dir / "phantom002"), "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_FIT
        assert NOT_SAVED_BACK in capsys.readouterr().err

    def test_fractional_mask_exit_code(self, tmp_path, cohort_dir, model_dir, capsys):
        patient = shutil.copytree(cohort_dir / "phantom002", tmp_path / "patient")
        mask = np.fromfile(patient / "mask.raw", dtype="<f4")
        mask[5] = 0.5
        mask.tofile(patient / "mask.raw")
        rc = main([
            "predict", "--model", str(model_dir / "model.json"),
            "--patient", str(patient), "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_DATA
        assert "mask must contain exactly 0 or 1, found [0.5]" in capsys.readouterr().err

    def test_missing_model_exit_code(self, tmp_path, cohort_dir, capsys):
        rc = main([
            "predict", "--model", str(tmp_path / "missing.json"),
            "--patient", str(cohort_dir / "phantom002"), "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_over_nested_bundle_exit_code(self, tmp_path, cohort_dir):
        """JSON nested past the parser's recursion limit is a malformed bundle.
        Run in a subprocess, so a regression fails instead of hanging or
        exhausting the test process's stack."""
        bundle = tmp_path / "model.json"
        bundle.write_text("[" * 200_000 + "]" * 200_000)
        proc = run_cli("predict", "--model", str(bundle),
                       "--patient", str(cohort_dir / "phantom002"), "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_FIT
        assert proc.stderr.startswith("estimation error:") and "Traceback" not in proc.stderr

    def test_nan_neighbor_voxel_exit_code(self, tmp_path, cohort_dir, model_dir, capsys):
        patient = shutil.copytree(cohort_dir / "phantom002", tmp_path / "patient")
        # Unmask voxel 0 and put a NaN there: only the neighbor features of
        # the masked voxel 1 read it.
        mask = np.fromfile(patient / "mask.raw", dtype="<f4")
        assert mask[1] == 1.0
        mask[0] = 0.0
        mask.tofile(patient / "mask.raw")
        mr = np.fromfile(patient / "mr0.raw", dtype="<f4")
        mr[0] = np.nan
        mr.tofile(patient / "mr0.raw")
        rc = main([
            "predict", "--model", str(model_dir / "model.json"),
            "--patient", str(patient), "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err

    def test_data_entry_outside_patient_exit_code(self, tmp_path, cohort_dir, model_dir,
                                                  capsys):
        patient = shutil.copytree(cohort_dir / "phantom002", tmp_path / "patient")
        shutil.copy(patient / "mr0.raw", tmp_path / "x.raw")
        header = patient / "mr0.hdr"
        text = header.read_text()
        assert "data: mr0.raw" in text
        header.write_text(text.replace("data: mr0.raw", "data: ../x.raw"))
        rc = main([
            "predict", "--model", str(model_dir / "model.json"),
            "--patient", str(patient), "--out", str(tmp_path / "out"),
        ])
        assert rc == EXIT_DATA
        assert "data entry" in capsys.readouterr().err

    def test_undecodable_header_exit_code(self, tmp_path, cohort_dir, model_dir, capsys):
        patient = shutil.copytree(cohort_dir / "phantom002", tmp_path / "patient")
        (patient / "mr0.hdr").write_bytes(b"dims: 12 12 12\n\xff\n")
        rc = main(["predict", "--model", str(model_dir / "model.json"),
                   "--patient", str(patient), "--out", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read header") and err.count("\n") == 1


class TestReadersCannotHang:
    """A FIFO where a reader expects a file is rejected before it is opened,
    since open() on a FIFO waits for a writer; each case exits with its
    documented code and no traceback."""

    @staticmethod
    def _expect(proc, code, prefix):
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(prefix) and "Traceback" not in proc.stderr
        assert "not a regular file" in proc.stderr

    @pytest.mark.parametrize("name", ["mr0.raw", "mr0.hdr"])
    def test_fifo_volume_file(self, tmp_path, cohort_dir, model_dir, name):
        patient = shutil.copytree(cohort_dir / "phantom002", tmp_path / "patient")
        (patient / name).unlink()
        os.mkfifo(patient / name)
        proc = run_cli("predict", "--model", str(model_dir / "model.json"),
                       "--patient", str(patient), "--out", str(tmp_path / "out"), timeout=30)
        self._expect(proc, EXIT_DATA, "data error:")

    def test_fifo_model(self, tmp_path, cohort_dir):
        os.mkfifo(tmp_path / "model.json")
        proc = run_cli("predict", "--model", str(tmp_path / "model.json"),
                       "--patient", str(cohort_dir / "phantom002"), "--out", str(tmp_path / "out"),
                       timeout=30)
        self._expect(proc, EXIT_DATA, "data error:")

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_fifo_config(self, tmp_path, cohort_dir, via):
        fifo = tmp_path / "run.cfg"
        os.mkfifo(fifo)
        argv = ["train", "--cohort", str(cohort_dir), "--out", str(tmp_path / "out")]
        if via == "flag":
            proc = run_cli(*argv, "--config", str(fifo), timeout=30)
        else:
            proc = run_cli(*argv, env={"MR2CT_CONFIG": str(fifo)}, timeout=30)
        self._expect(proc, EXIT_CONFIG, "config error:")


class TestEvaluate:
    def test_full_report(self, evaluate_dir):
        summary = json.loads((evaluate_dir / "summary.json").read_text())
        assert len(summary["per_patient"]) == 3
        assert summary["mean_mae"] < 100.0
        lines = (evaluate_dir / "residual_curves.csv").read_text().strip().splitlines()
        assert lines[0].startswith("window_center_hu")
        assert len(lines) > 2

    def test_every_fold_failing_exit_code(self, tmp_path, cohort_dir, capsys):
        # No voxel reaches 100000 HU, so every fold lacks the bone class.
        rc = main([
            "evaluate", "--cohort", str(cohort_dir), "--out", str(tmp_path / "eval"),
            "--threshold-hu", "100000", *FAST,
        ])
        assert rc == EXIT_FIT
        err = capsys.readouterr().err
        assert "every leave-one-out fold failed" in err
        assert err.count("both tissue classes must be present") == 3


class TestCvClassifier:
    def test_metrics_written(self, cv_dir):
        payload = json.loads((cv_dir / "cv_metrics.json").read_text())
        assert payload["metrics"]["err"] <= 0.05
        assert len(payload["folds"]) == 3


class TestConfigHandling:
    def test_unknown_subcommand(self, capsys):
        rc = main(["frobnicate"])
        assert rc == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("key, value", [
        ("trees", "0"),
        ("trees", "abc"),
        ("order", "third"),
        ("j_candidates", "a,b"),
        ("window_hu", "nan"),
        ("window_hu", "inf"),
        ("em_tol", "nan"),
        ("em_tol", "inf"),
        ("threshold_hu", "inf"),
        ("fill_hu", "-inf"),
        ("seed", "-1"),
        ("max_splits", "0"),
        ("min_leaf", "0"),
        ("em_restarts", "0"),
        ("em_max_iter", "0"),
        ("em_tol", "0"),
    ], ids=lambda v: v.replace("_", "-"))
    def test_invalid_config_value(self, tmp_path, key, value, capsys):
        """A bad value exits 3 alike from a flag and from a config file, with
        a message that names the key, and a file's names its line too, also
        when a flag overrides it.  Config is parsed before the cohort is
        read, so no cohort is needed."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# bad value below\n{key} = {value}\n")
        command = next(c for c in ("train", "evaluate") if key in RUN_KEYS[c])
        flag = f"--{key.replace('_', '-')}"
        good = str(getattr(RunConfig(), key)).strip("()")  # the default, as a flag value
        for source in ([f"{flag}={value}"], ["--config", str(cfg)],
                       ["--config", str(cfg), f"{flag}={good}"]):
            rc = main([command, "--cohort", str(tmp_path / "none"), "--out", str(tmp_path / "x"),
                       *source])
            assert rc == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:") and key in err
            assert (f"{cfg}:2: " in err) == ("--config" in source)

    def test_negative_exponent_values(self, tmp_path, cohort_dir, capsys):
        """A negative number in exponent notation is a flag's value, not an option."""
        out = tmp_path / "train"
        rc = main(["train", "--cohort", str(cohort_dir), "--out", str(out), *FAST,
                   "--fill-hu", "-1e4", "--threshold-hu", "-2.5E+1"])
        assert rc == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["fill_hu"], config["threshold_hu"]) == (-1e4, -25.0)
        rc = main(["train", "--cohort", str(cohort_dir), "--out", str(out), "--trees", "-1e2"])
        assert rc == EXIT_CONFIG
        assert "cannot parse '-1e2' as an int" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, tmp_path, cohort_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\ntrees = 2\n# comment\nmin_leaf = 3\nem_restarts = 4\n")
        out = tmp_path / "cv"
        rc = main([
            "cv-classifier", "--cohort", str(cohort_dir), "--out", str(out),
            "--config", str(cfg), "--seed", "9", "--cv-folds", "2", "--order", "first",
            "--max-splits", "4",
        ])
        assert rc == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["seed"] == 9      # flag wins
        assert config["trees"] == 2     # file wins over default
        assert config["min_leaf"] == 3
        assert "em_restarts" not in config  # checked, but cv-classifier does not read it

    def test_env_var_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("seed = 77\n")
        monkeypatch.setenv("MR2CT_CONFIG", str(cfg))
        out = tmp_path / "phantom-env"
        rc = main(["phantom", "--out", str(out), "--patients", "1", "--dims", "8,8,8"])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 77

    def test_phantom_records_only_seed(self, tmp_path):
        """A config file is checked whole, but the manifest records only the
        keys the subcommand reads."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trees = 7\nfill_hu = 0\n")
        out = tmp_path / "phantom"
        rc = main(["phantom", "--out", str(out), "--patients", "1", "--dims", "4,4,4",
                   "--seed", "3", "--config", str(cfg)])
        assert rc == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["artifacts", "command", "config"]
        assert manifest["config"] == {"seed": 3}

    @pytest.mark.parametrize("command, flag", [
        ("phantom", "--trees=7"),
        ("phantom", "--fill-hu=0"),
        ("train", "--window-hu=5"),
        ("train", "--cv-folds=3"),
        ("evaluate", "--fill-hu=0"),
        ("cv-classifier", "--em-restarts=2"),
        ("cv-classifier", "--j-candidates=1"),
    ])
    def test_flag_outside_run_keys_is_usage_error(self, tmp_path, command, flag, capsys):
        source = [] if command == "phantom" else ["--cohort", str(tmp_path / "none")]
        rc = main([command, "--out", str(tmp_path / "x"), *source, flag])
        assert rc == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_keys_per_command(self, model_dir, evaluate_dir, cv_dir):
        """Each subcommand records exactly the run keys it takes as flags, 32
        flags in all."""
        assert sum(len(keys) for keys in RUN_KEYS.values()) == 32
        for command, out in [("train", model_dir), ("evaluate", evaluate_dir),
                             ("cv-classifier", cv_dir)]:
            manifest = json.loads((out / "manifest.json").read_text())
            assert sorted(manifest) == ["artifacts", "command", "config"]
            assert set(manifest["config"]) == set(RUN_KEYS[command])

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert rc == EXIT_CONFIG

    def test_undecodable_config_exit_code(self, tmp_path, cohort_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\n")
        rc = main(["train", "--cohort", str(cohort_dir), "--out", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file") and err.count("\n") == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        """An unknown key exits 3, and so does each key that no longer exists."""
        cfg = tmp_path / "bad.cfg"
        for line in ("warp_speed = 9", "j_candidates_0 = 5", "j_candidates_1 = 5",
                     "selection_criterion = mse", "classifier_cv_folds = 2", "rus_ratio = 1.0"):
            cfg.write_text(line + "\n")
            rc = main(["phantom", "--out", str(tmp_path / "x"), "--config", str(cfg)])
            assert rc == EXIT_CONFIG
            key = line.split(" =")[0]
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_removed_flag_is_usage_error(self, tmp_path, capsys):
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--selection-criterion", "mse"])
        assert rc == EXIT_USAGE
        assert "--selection-criterion" in capsys.readouterr().err

    def test_unknown_order_in_config_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("order = third\n")
        rc = main(["phantom", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert rc == EXIT_CONFIG
