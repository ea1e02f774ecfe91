import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowsentry import anomaly, autoencoder, cli, errors, evaluation, ingest, synth
from flowsentry.cli import build_parser, main
from flowsentry.windowing import WindowConfig

FAST = [
    "--sigma", "0.5", "--amplitude", "0.5", "--period", "300",
]
DATA = Path(__file__).parent / "data"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def exit_code(*argv) -> int:
    """`run`, with an argparse usage error returned as its exit code."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def write_scaler(path):
    """A scaler over the default feature columns, as preprocess writes one."""
    m = len(ingest.DEFAULT_FEATURES)
    ingest.save_scaler(ingest.Scaler(np.zeros(m), np.ones(m), ingest.DEFAULT_FEATURES), path)
    return path


def verdict_lines(bad: dict) -> str:
    """Rows for lines 4 to 1001 of a verdicts file, two blocks and more: each
    line's row is `line - 2,0.5,0,0`, or the row `bad` gives for that line."""
    return "\n".join(bad.get(line, f"{line - 2},0.5,0,0") for line in range(4, 1002))


@pytest.fixture()
def pipeline_dir(tmp_path, monkeypatch):
    """synth -> preprocess -> train -> calibrate -> detect, small but real."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    data = tmp_path / "data"
    prep = tmp_path / "prep"
    assert run("synth", "--benign", 400, "--attack", 100, "--seed", 11,
               "--out", data, *FAST) == 0
    assert run("preprocess", "--benign", data / "benign.csv",
               "--attacks", data / "attack.csv", "--attack-frac", "1.0",
               "--seed", 11, "--out", prep) == 0
    assert run("train", "--input", prep / "train.csv",
               "--scaler", prep / "scaler.json", "--epochs", 8, "--seed", 11,
               "--out", tmp_path / "model.json",
               "--history", tmp_path / "history.json") == 0
    assert run("calibrate", "--model", tmp_path / "model.json",
               "--scaler", prep / "scaler.json", "--input", prep / "train.csv",
               "--out", tmp_path / "th.json") == 0
    assert run("detect", "--model", tmp_path / "model.json",
               "--thresholds", tmp_path / "th.json", "--input", prep / "test.csv",
               "--out", tmp_path / "verdicts.csv") == 0
    return tmp_path


class TestPipeline:
    def test_stage_artifacts_exist(self, pipeline_dir):
        for name in ("model.json", "th.json", "verdicts.csv", "history.json"):
            assert (pipeline_dir / name).exists()

    def test_detect_on_training_file_flags_nothing(self, pipeline_dir):
        prep = pipeline_dir / "prep"
        out = pipeline_dir / "train_verdicts.csv"
        assert run("detect", "--thresholds", pipeline_dir / "th.json",
                   "--model", pipeline_dir / "model.json",
                   "--input", prep / "train.csv", "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["verdict"]) for r in rows) == 0

    def test_evaluate_emits_report_and_roc(self, pipeline_dir):
        report_path = pipeline_dir / "report.json"
        roc_path = pipeline_dir / "roc.csv"
        assert run("evaluate", "--verdicts", pipeline_dir / "verdicts.csv",
                   "--out", report_path,
                   "--roc-points", roc_path,
                   "--history", pipeline_dir / "history.json") == 0
        doc = json.loads(report_path.read_text())
        assert doc["accuracy"] >= 0.95
        assert doc["precision"] >= 0.99
        # the training config, as train wrote it into history.json
        assert doc["metadata"]["config"]["seed"] == 11
        assert "epoch_time_mean" in doc["metadata"]
        assert roc_path.read_text().startswith("threshold,fpr,tpr")

    def test_evaluate_sorts_the_scores_once_for_the_auc_and_the_roc(self, pipeline_dir, monkeypatch):
        sorts, roc_counts = [], evaluation._roc_counts
        monkeypatch.setattr(evaluation, "_roc_counts", lambda *args: sorts.append(args) or roc_counts(*args))
        assert run("evaluate", "--verdicts", pipeline_dir / "verdicts.csv", "--out", pipeline_dir / "r.json",
                   "--roc-points", pipeline_dir / "roc.csv") == 0
        assert len(sorts) == 1
        assert json.loads((pipeline_dir / "r.json").read_text())["auc"] is not None

    def test_markdown_report(self, pipeline_dir):
        out = pipeline_dir / "report.md"
        assert run("evaluate", "--verdicts", pipeline_dir / "verdicts.csv",
                   "--out", out, "--format", "markdown") == 0
        assert out.read_text().startswith("| Window | Acc | Pre | Re | F1 |")

    def test_markdown_window_is_the_trained_window(self, pipeline_dir):
        prep = pipeline_dir / "prep"
        w20 = pipeline_dir / "w20"
        w20.mkdir()
        assert run("train", "--input", prep / "train.csv", "--scaler", prep / "scaler.json",
                   "--window", 20, "--epochs", 1, "--seed", 11, "--out", w20 / "model.json",
                   "--history", w20 / "history.json") == 0
        assert run("calibrate", "--model", w20 / "model.json", "--scaler", prep / "scaler.json",
                   "--input", prep / "train.csv", "--out", w20 / "th.json") == 0
        assert run("detect", "--thresholds", w20 / "th.json", "--input", prep / "test.csv",
                   "--out", w20 / "verdicts.csv") == 0
        out = w20 / "report.md"
        assert run("evaluate", "--verdicts", w20 / "verdicts.csv", "--out", out,
                   "--format", "markdown", "--history", w20 / "history.json") == 0
        assert out.read_text().splitlines()[2].startswith("| 20 |")

    def test_single_class_verdicts_degrade_auc_gracefully(self, pipeline_dir):
        # verdicts from a benign-only file have one label class: AUC is
        # undefined and must be flagged, not crash
        prep = pipeline_dir / "prep"
        verdicts = pipeline_dir / "benign_verdicts.csv"
        report = pipeline_dir / "benign_report.json"
        assert run("detect", "--thresholds", pipeline_dir / "th.json",
                   "--model", pipeline_dir / "model.json",
                   "--input", prep / "train.csv", "--out", verdicts) == 0
        assert run("evaluate", "--verdicts", verdicts, "--out", report) == 0
        doc = json.loads(report.read_text())
        assert doc["auc"] is None
        assert "auc" in doc["degenerate"]

    def test_an_undefined_roc_writes_no_file(self, pipeline_dir, capsys):
        # the report was once written before the ROC of one class failed
        verdicts = pipeline_dir / "benign_verdicts.csv"
        report, roc = pipeline_dir / "benign_report.json", pipeline_dir / "benign_roc.csv"
        assert run("detect", "--thresholds", pipeline_dir / "th.json",
                   "--input", pipeline_dir / "prep" / "train.csv", "--out", verdicts) == 0
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", report, "--roc-points", roc) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ROC is undefined when only one class is present"], err
        assert not report.exists() and not roc.exists()

    def test_threshold_embeds_the_training_split_scaler(self, pipeline_dir):
        # the scaler shipped for scoring must be the one fitted on the
        # training split, never refitted on test data
        scaler = json.loads((pipeline_dir / "prep" / "scaler.json").read_text())
        th = json.loads((pipeline_dir / "th.json").read_text())
        assert th["scaler"]["min"] == scaler["min"]
        assert th["scaler"]["max"] == scaler["max"]
        assert th["scaler"]["feature_names"] == scaler["feature_names"]

    def test_rerun_reproduces_intermediates_byte_identically(self, pipeline_dir):
        prep = pipeline_dir / "prep"
        model2 = pipeline_dir / "model2.json"
        th2 = pipeline_dir / "th2.json"
        verdicts2 = pipeline_dir / "verdicts2.csv"
        assert run("train", "--input", prep / "train.csv",
                   "--scaler", prep / "scaler.json", "--epochs", 8, "--seed", 11,
                   "--out", model2) == 0
        assert run("calibrate", "--model", model2, "--scaler", prep / "scaler.json",
                   "--input", prep / "train.csv", "--out", th2) == 0
        assert run("detect", "--model", model2, "--thresholds", th2,
                   "--input", prep / "test.csv", "--out", verdicts2) == 0
        model_a = json.loads((pipeline_dir / "model.json").read_text())
        model_b = json.loads(model2.read_text())
        assert model_a == model_b
        # threshold files embed the model path, which legitimately differs here
        th_a = json.loads((pipeline_dir / "th.json").read_text())
        th_b = json.loads(th2.read_text())
        th_a.pop("model"), th_b.pop("model")
        assert th_a == th_b
        assert (pipeline_dir / "verdicts.csv").read_bytes() == verdicts2.read_bytes()


def usable_feature_rows(path, label=None):
    """The default feature values of each row of a flow CSV that Python's float reads
    as finite numbers, whose label is `label` (any, if None), in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [name.strip() for name in next(reader)]
        cols, at = [header.index(name) for name in ingest.DEFAULT_FEATURES], header.index("Label")
        rows = []
        for row in reader:
            try:
                values = [float(row[c]) for c in cols]
            except (ValueError, IndexError):
                continue
            if all(map(math.isfinite, values)) and label in (None, row[at].strip().upper()):
                rows.append(values)
    return rows


class TestTimeSplit:
    """preprocess holds out the benign rows that come last in time, so the held-out
    rows are a time series like the training rows."""

    def test_train_holds_the_first_usable_benign_rows_and_test_the_rest(self, tmp_path):
        data, prep = tmp_path / "data", tmp_path / "prep"
        assert run("synth", "--benign", 50, "--attack", 10, "--seed", 3, "--out", data) == 0
        lines = (data / "benign.csv").read_text(encoding="utf-8").splitlines()
        # rows preprocess skips: a cell that is no number, a non-finite one, an attack label
        lines[7:7] = ["x,0,abc,1,1,1,1,BENIGN", "x,0,1,inf,1,1,1,BENIGN", "x,0,1,1,1,1,1,DrDoS_DNS"]
        (data / "benign.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("preprocess", "--benign", data / "benign.csv", "--attacks", data / "attack.csv",
                   "--attack-frac", "1.0", "--seed", 3, "--out", prep) == 0
        benign = usable_feature_rows(data / "benign.csv", "BENIGN")
        k = math.floor(0.8 * len(benign))
        assert len(benign) == 50
        assert usable_feature_rows(prep / "train.csv") == benign[:k]
        assert usable_feature_rows(prep / "test.csv", "BENIGN") == benign[k:]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_held_out_benign_rows_rank_below_the_attacks_at_the_synth_defaults(self, tmp_path, seed):
        # at synth's period 50, a held-out part drawn at random from time puts its
        # adjacent rows about 5 source rows apart, and detect windowed those jumps
        # as anomalies: AUC 0.002-0.011 and FPR 0.85-0.96 over these seeds
        data, prep = tmp_path / "data", tmp_path / "prep"
        assert run("synth", "--seed", seed, "--out", data) == 0
        assert run("preprocess", "--benign", data / "benign.csv", "--attacks", data / "attack.csv",
                   "--attack-frac", "1.0", "--seed", seed, "--out", prep) == 0
        assert run("train", "--input", prep / "train.csv", "--scaler", prep / "scaler.json",
                   "--epochs", 10, "--seed", seed, "--out", tmp_path / "model.json") == 0
        assert run("calibrate", "--model", tmp_path / "model.json", "--scaler", prep / "scaler.json",
                   "--input", prep / "train.csv", "--out", tmp_path / "th.json") == 0
        assert run("detect", "--model", tmp_path / "model.json", "--thresholds", tmp_path / "th.json",
                   "--input", prep / "test.csv", "--out", tmp_path / "verdicts.csv") == 0
        assert run("evaluate", "--verdicts", tmp_path / "verdicts.csv", "--out", tmp_path / "report.json") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        # the test set's benign rows are the held-out ones, so its FPR is theirs
        assert report["auc"] >= 0.95 and report["fpr"] <= 0.01, report


class TestArtifactVersions:
    def test_history_is_version_2_without_validation_loss(self, pipeline_dir):
        doc = json.loads((pipeline_dir / "history.json").read_text())
        assert doc["version"] == 2
        assert "val_loss" not in doc
        assert len(doc["train_loss"]) == len(doc["epoch_seconds"]) == 8

    def test_threshold_records_the_model_hash(self, pipeline_dir):
        th = json.loads((pipeline_dir / "th.json").read_text())
        assert th.keys() == {"version", "threshold", "scaler", "model", "model_sha256", "provenance"}
        assert th["version"] == 3 and th["provenance"].keys() == {"config", "created"}
        digest = hashlib.sha256((pipeline_dir / "model.json").read_bytes()).hexdigest()
        assert th["model_sha256"] == digest

    def test_detect_without_model_loads_the_path_in_th_json(self, pipeline_dir):
        out = pipeline_dir / "default_model_verdicts.csv"
        assert run("detect", "--thresholds", pipeline_dir / "th.json",
                   "--input", pipeline_dir / "prep" / "test.csv", "--out", out) == 0
        assert out.read_bytes() == (pipeline_dir / "verdicts.csv").read_bytes()

    def test_detect_resolves_the_stored_model_path_against_th_json(
        self, pipeline_dir, monkeypatch
    ):
        # th.json stores the model path relative to itself, so detect finds
        # the model from a directory that holds no model.json
        th = json.loads((pipeline_dir / "th.json").read_text())
        assert th["model"] == "model.json"
        prep = pipeline_dir / "prep"
        run_dir, elsewhere = pipeline_dir / "run", pipeline_dir / "elsewhere"
        run_dir.mkdir()
        elsewhere.mkdir()
        shutil.copy(pipeline_dir / "model.json", run_dir / "model.json")
        monkeypatch.chdir(run_dir)
        assert run("calibrate", "--model", "model.json", "--scaler", prep / "scaler.json",
                   "--input", prep / "train.csv", "--out", "th.json") == 0
        monkeypatch.chdir(elsewhere)
        assert run("detect", "--thresholds", "../run/th.json",
                   "--input", prep / "test.csv", "--out", "verdicts.csv") == 0
        assert (elsewhere / "verdicts.csv").read_bytes() == (pipeline_dir / "verdicts.csv").read_bytes()

    def test_detect_refuses_a_model_with_another_hash(self, pipeline_dir, capsys):
        prep = pipeline_dir / "prep"
        other = pipeline_dir / "other.json"
        assert run("train", "--input", prep / "train.csv", "--scaler", prep / "scaler.json",
                   "--epochs", 1, "--seed", 12, "--out", other) == 0
        out = pipeline_dir / "other_verdicts.csv"
        capsys.readouterr()
        assert run("detect", "--model", other, "--thresholds", pipeline_dir / "th.json",
                   "--input", prep / "test.csv", "--out", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "calibrated" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("version", [1, 2])
    def test_version_1_threshold_file_is_unsupported(self, pipeline_dir, capsys, version):
        # each as that version wrote it: v2 added the model hash, v3 dropped the window
        th = json.loads((pipeline_dir / "th.json").read_text())
        th["version"], th["window"] = version, {"timesteps": 10}
        th["provenance"]["training_fingerprint"] = "ab" * 32
        if version == 1:
            th["window"]["stride"] = 1
            del th["model_sha256"]
        old = pipeline_dir / f"th_v{version}.json"
        old.write_text(json.dumps(th))
        out = pipeline_dir / f"v{version}_verdicts.csv"
        capsys.readouterr()
        assert run("detect", "--model", pipeline_dir / "model.json", "--thresholds", old,
                   "--input", pipeline_dir / "prep" / "test.csv", "--out", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "unsupported" in err[0], err
        assert not out.exists()

    def test_version_1_model_file_is_unsupported(self, small_run, tmp_path, capsys):
        # v1 stored each gate on its own; v2 stores the stacked arrays the model holds
        model = DATA / "model_v1.json"
        capsys.readouterr()
        assert run("calibrate", "--model", model, "--scaler", small_run / "scaler.json",
                   "--input", small_run / "benign.csv", "--out", tmp_path / "th.json") == 3
        assert run("detect", "--model", model, "--thresholds", small_run / "th.json",
                   "--input", small_run / "benign.csv", "--out", tmp_path / "verdicts.csv") == 3
        line = f"error: {model}: unsupported model file version 1"
        assert capsys.readouterr().err.strip().splitlines() == [line, line]
        assert not any(tmp_path.iterdir())


class TestGradcheck:
    def test_exit_zero_and_prints_error(self, capsys):
        assert run("gradcheck", "--seed", 1) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "OK" in out

    def test_small_tolerance_fails_with_numeric_exit_code(self, capsys):
        assert run("gradcheck", "--seed", 1, "--tolerance", "1e-12") == 4
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--step", "0"), ("--step", "-1e-5"), ("--windows", "-1"), ("--windows", "0"),
        ("--samples", "0"), ("--tolerance", "0"), ("--tolerance", "nan"),
    ])
    def test_out_of_range_value_is_a_validation_error(self, capsys, flag, value):
        assert run("gradcheck", "--seed", 1, f"{flag}={value}") == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} must be > 0"), err
        assert "OK" not in captured.out

    def test_samples_help_states_the_checked_bound(self, capsys):
        with pytest.raises(SystemExit):
            run("gradcheck", "--help")
        assert "(>= 1)" in capsys.readouterr().out


class TestSweep:
    def test_three_windows_three_rows(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--benign", 300, "--attack", 60, "--seed", 3,
                   "--out", data, *FAST) == 0
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--benign", data / "benign.csv",
                   "--attacks", data / "attack.csv", "--attack-frac", "1.0",
                   "--windows", "5,8,10", "--batches", "32", "--lrs", "0.001",
                   "--epochs", 2, "--seed", 3, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [r["window"] for r in rows] == ["5", "8", "10"]
        assert all(float(r["epoch_time_mean"]) > 0 for r in rows)

    def test_a_cell_equals_the_staged_pipeline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seed, keys = ["--seed", 7], ["--epochs", 3, "--seed", 7]
        assert run("synth", "--benign", 1500, "--attack", 300, "--shift", 4, *seed,
                   "--out", "data", *FAST) == 0
        assert run("preprocess", "--benign", "data/benign.csv", "--attacks", "data/attack.csv",
                   "--attack-frac", "1.0", *seed, "--out", "prep") == 0
        assert run("train", "--input", "prep/train.csv", "--scaler", "prep/scaler.json",
                   "--window", 10, "--batch", 64, *keys, "--out", "model.json") == 0
        assert run("calibrate", "--model", "model.json", "--scaler", "prep/scaler.json",
                   "--input", "prep/train.csv", "--out", "th.json") == 0
        assert run("detect", "--thresholds", "th.json", "--input", "prep/test.csv",
                   "--out", "verdicts.csv") == 0
        assert run("evaluate", "--verdicts", "verdicts.csv", "--out", "report.json") == 0
        assert run("sweep", "--benign", "data/benign.csv", "--attacks", "data/attack.csv",
                   "--attack-frac", "1.0", "--windows", 10, "--batches", 64, "--lrs", "0.001",
                   *keys, "--out", "sweep.csv") == 0
        staged = json.loads((tmp_path / "report.json").read_text())
        with open(tmp_path / "sweep.csv") as fh:
            (cell,) = csv.DictReader(fh)
        for metric in ("accuracy", "precision", "recall", "fpr", "f1", "auc"):
            assert float(cell[metric]) == staged[metric], metric
        for count in ("tp", "tn", "fp", "fn"):
            assert int(cell[count]) == staged["counts"][count], count
        assert (staged["counts"]["tp"], staged["counts"]["fn"]) == (299, 1)

    def test_zero_epochs_leave_the_epoch_time_cells_blank(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--benign", 300, "--attack", 60, "--seed", 3,
                   "--out", data, *FAST) == 0
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--benign", data / "benign.csv",
                   "--attacks", data / "attack.csv", "--attack-frac", "1.0",
                   "--windows", "5", "--batches", "32", "--lrs", "0.001",
                   "--epochs", 0, "--seed", 3, "--out", out) == 0
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        assert row["epoch_time_mean"] == row["epoch_time_std"] == ""


class TestConfigResolution:
    def test_config_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 100, "epochs": 7}))
        data = tmp_path / "data"
        # the flag beats the file
        assert run("--config", config, "synth", "--benign", 50, "--attack", 10,
                   "--seed", 300, "--out", data) == 0
        a = (data / "benign.csv").read_bytes()
        assert run("synth", "--benign", 50, "--attack", 10, "--seed", 300,
                   "--out", data) == 0
        assert (data / "benign.csv").read_bytes() == a

        # the file beats the default; synth ignores the file's epochs
        assert run("--config", config, "synth", "--benign", 50, "--attack", 10,
                   "--out", data) == 0
        b = (data / "benign.csv").read_bytes()
        assert run("synth", "--seed", 100, "--benign", 50, "--attack", 10,
                   "--out", data) == 0
        assert (data / "benign.csv").read_bytes() == b

    def test_unknown_config_key_is_a_validation_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning": 1}))
        assert run("--config", config, "gradcheck") == 2

    def test_environment_variables_are_ignored(self, tmp_path, monkeypatch):
        def outputs(root):
            assert run("synth", "--benign", 60, "--attack", 10, "--seed", 4,
                       "--out", root, *FAST) == 0
            assert run("train", "--input", root / "benign.csv",
                       "--scaler", write_scaler(root / "scaler.json"), "--epochs", 1,
                       "--out", root / "model.json") == 0
            return [(root / name).read_bytes() for name in ("benign.csv", "model.json")]

        plain = outputs(tmp_path / "plain")
        monkeypatch.setenv("FLOWSENTRY_SEED", "77")
        monkeypatch.setenv("FLOWSENTRY_UNITS", "3")
        assert outputs(tmp_path / "env") == plain

    def test_each_artifact_records_its_own_stage_keys(self, pipeline_dir):
        history = json.loads((pipeline_dir / "history.json").read_text())
        assert history["config"] == {
            "label_col": "Label", "window": 10, "units": 16, "dropout": 0.2,
            "epochs": 8, "batch": 64, "lr": 0.001, "seed": 11,
        }
        th = json.loads((pipeline_dir / "th.json").read_text())
        assert th["provenance"]["config"] == {"label_col": "Label"}


# The option keys each subcommand reads; every other key of the table must
# fail to parse there.
ALL_KEYS = ("features", "label_col", "train_frac", "attack_frac", "window", "units",
            "dropout", "epochs", "batch", "lr", "seed")
STAGES = {
    "synth": (["--out", "d"], ("features", "label_col", "seed")),
    "preprocess": (["--benign", "b", "--attacks", "a", "--out", "d"],
                   ("features", "label_col", "train_frac", "attack_frac", "seed")),
    "train": (["--input", "i", "--scaler", "s", "--out", "o"],
              ("label_col", "window", "units", "dropout", "epochs", "batch", "lr", "seed")),
    "calibrate": (["--model", "m", "--scaler", "s", "--input", "i", "--out", "o"],
                  ("label_col",)),
    "detect": (["--thresholds", "t", "--input", "i", "--out", "o"], ("label_col",)),
    "evaluate": (["--verdicts", "v", "--out", "o"], ()),
    "sweep": (["--benign", "b", "--attacks", "a", "--out", "o"],
              ("features", "label_col", "train_frac", "attack_frac", "units", "dropout",
               "epochs", "seed")),
    "gradcheck": ([], ("features", "window", "units", "seed")),
}
VALUES = {"features": "A,B", "label_col": "Kind", "train_frac": "0.5", "attack_frac": "0.5",
          "window": "3", "units": "2", "dropout": "0.1", "epochs": "2", "batch": "8",
          "lr": "0.01", "seed": "5"}


def flag(key):
    return "--" + key.replace("_", "-")


class TestOptionSurface:
    @pytest.mark.parametrize("command,key", [
        (c, k) for c, (_, keys) in STAGES.items() for k in ALL_KEYS if k not in keys
    ])
    def test_a_key_the_subcommand_does_not_read_is_a_usage_error(self, command, key, capsys):
        required, _ = STAGES[command]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *required, flag(key), VALUES[key]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag(key)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [
        (c, k) for c, (_, keys) in STAGES.items() for k in keys
    ])
    def test_a_key_the_subcommand_reads_parses(self, command, key):
        required, _ = STAGES[command]
        args = build_parser().parse_args([command, *required, flag(key), VALUES[key]])
        expected = VALUES[key].split(",") if key == "features" else VALUES[key]
        assert str(getattr(args, key)) == str(expected)

    @pytest.mark.parametrize("config,argv", [
        ({"seed": "abc"}, ["gradcheck"]),
        ({"features": 5}, ["gradcheck"]),
        ([1, 2], ["gradcheck"]),
        ({"window": 3.9}, ["gradcheck"]),
        (None, ["sweep", "--benign", "b", "--attacks", "a", "--out", "o", "--windows", "a,b"]),
        (None, ["sweep", "--benign", "b", "--attacks", "a", "--out", "o", "--lrs", ","]),
    ], ids=["seed-not-a-number", "features-not-names", "config-not-an-object",
         "window-not-an-integer", "sweep-windows", "sweep-no-lrs"])
    def test_bad_option_value_is_one_error_line(self, tmp_path, capsys, config, argv):
        prefix = []
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            prefix = ["--config", path]
        capsys.readouterr()
        assert exit_code(*prefix, *argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


class TestExitCodes:
    def test_missing_input_file_is_a_data_error(self, tmp_path):
        assert run("train", "--input", tmp_path / "missing.csv",
                   "--scaler", write_scaler(tmp_path / "scaler.json"),
                   "--out", tmp_path / "m.json") == 3

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("gradcheck", "--frobnicate")
        assert exc.value.code == 2

    def test_bad_parameter_is_validation_error(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--benign", 20, "--attack", 5, "--out", data) == 0
        assert run("preprocess", "--benign", data / "benign.csv",
                   "--attacks", data / "attack.csv", "--train-frac", "1.5",
                   "--out", tmp_path / "prep") == 2

    @pytest.mark.parametrize("flags,label", [
        (["--features", "Max Packet Length", "--label-col", "Max Packet Length"], "Max Packet Length"),
        (["--features", "Label,Max Packet Length"], "Label"),
    ], ids=["label-col-is-a-feature", "features-name-the-label"])
    def test_a_label_column_that_is_a_feature_is_a_validation_error(self, tmp_path, capsys, flags, label):
        data = tmp_path / "data"
        assert run("synth", "--benign", 20, "--attack", 5, "--out", data, *FAST) == 0
        capsys.readouterr()
        assert run("preprocess", "--benign", data / "benign.csv", "--attacks", data / "attack.csv",
                   *flags, "--out", tmp_path / "prep") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: label column {label!r} is also a feature column"], err

    def test_insufficient_rows_for_window_is_data_error(self, tmp_path):
        data = tmp_path / "data"
        assert run("synth", "--benign", 5, "--attack", 2, "--out", data, *FAST) == 0
        assert run("train", "--input", data / "benign.csv", "--window", 10,
                   "--scaler", write_scaler(tmp_path / "scaler.json"),
                   "--out", tmp_path / "m.json") == 3

    @pytest.mark.parametrize("command", ["preprocess", "sweep"])
    def test_a_benign_file_without_benign_rows_is_a_data_error(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        assert run("synth", "--benign", 20, "--attack", 20, "--out", data, *FAST) == 0
        capsys.readouterr()
        assert run(command, "--benign", data / "attack.csv", "--attacks", data / "attack.csv",
                   "--out", tmp_path / "out") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {data / 'attack.csv'}: no usable benign rows"], err

    @pytest.mark.parametrize("row", ["1,abc,1,1", "1,0.2", "1,nan,1,1", "1,0.2,1.0,1"],
                             ids=["non-numeric-score", "short-row", "nan-score", "float-verdict"])
    def test_malformed_verdict_row_is_a_data_error(self, tmp_path, capsys, row):
        verdicts = tmp_path / "v.csv"
        verdicts.write_text(f"row_index,score,verdict,label\n0,0.1,0,0\n{row}\n")
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not (tmp_path / "r.json").exists()

    def test_non_binary_label_is_named_as_a_plain_number(self, tmp_path, capsys):
        verdicts = tmp_path / "v.csv"
        verdicts.write_text("row_index,score,verdict,label\n0,0.1,0,0\n1,0.5,1,2\n")
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: labels contains non-binary value(s): [2]"], err

    @pytest.mark.parametrize("row,message", [
        ("1,abc,1,1", "line 4: score, verdict and label must be numbers, got ['abc', '1', '1']"),
        ("1,0.2", "line 4: score, verdict and label must be numbers, got ['0.2', None, None]"),
        ("1,inf,1,1", "line 4: non-finite score inf"),
        ("1,0.2,1.0,1", "line 4: score, verdict and label must be numbers, got ['0.2', '1.0', '1']"),
        (verdict_lines({699: "697,abc,1,1"}),
         "line 699: score, verdict and label must be numbers, got ['abc', '1', '1']"),
        (verdict_lines({699: "697,inf,1,1", 802: "800,xyz,1,1"}), "line 699: non-finite score inf"),
        (verdict_lines({699: "697,xyz,1,1", 802: "800,inf,1,1"}),
         "line 699: score, verdict and label must be numbers, got ['xyz', '1', '1']"),
        (verdict_lines({600: '598,"0.5\n",0,0', 699: "697,abc,1,1"}),
         "line 700: score, verdict and label must be numbers, got ['abc', '1', '1']"),
    ], ids=["non-numeric-score", "short-row", "inf-score", "float-verdict", "second-block",
            "first-of-two-is-non-finite", "first-of-two-is-not-a-number", "after-a-cell-over-two-lines"])
    def test_malformed_verdict_row_names_its_line(self, tmp_path, capsys, row, message):
        # the blank line counts: the bad row is on line 4
        verdicts = tmp_path / "v.csv"
        verdicts.write_text(f"row_index,score,verdict,label\n0,0.1,0,0\n\n{row}\n2,0.3,0,0\n")
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json") == 3
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {verdicts}, {message}"]

    @pytest.mark.parametrize("text", [
        "row_index,score,verdict,label\r\n0,0.1,0,0\r\n1,0.9,1,1\r\n",
        'row_index,score,verdict,label\n"0","0.1",0,0\n"1","0.9",1,1\n',
        "row_index,score,verdict,label\n0,0.1,0,0\n1,1_0.5,1,1\n",
        "row_index,score,verdict,label\n0,0.1,0,0\n1,0.9,1,+1\n",
        "row_index,score,verdict,label\n\n\n0,0.1,0,0\n1,0.9,1,1\n",
    ], ids=["crlf", "quoted-cells", "underscore-score", "plus-sign-label", "blank-lines"])
    def test_evaluate_reads_these_verdict_spellings(self, tmp_path, text):
        # one benign row scored below one attack row, each spelled another way
        verdicts = tmp_path / "v.csv"
        verdicts.write_bytes(text.encode())
        assert run("evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json") == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["counts"] == {"tp": 1, "tn": 1, "fp": 0, "fn": 0} and report["auc"] == 1.0, report

    def test_a_verdict_file_without_rows_is_a_data_error(self, tmp_path, capsys):
        verdicts = tmp_path / "v.csv"
        verdicts.write_text("row_index,score,verdict,label\n")
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json") == 3
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {verdicts}: no verdict rows"]
        assert list(tmp_path.iterdir()) == [verdicts]

    @pytest.mark.parametrize("header, message", [
        ("row_index,score,verdict,label,score", "column(s) named more than once: score"),
        ("row_index, score ,verdict", "missing required column(s): label"),
    ], ids=["score-twice", "no-label"])
    def test_a_verdict_column_missing_or_named_twice_is_refused(self, tmp_path, capsys, header, message):
        # the last of two score columns was once read: AUC 0.0 here, where the first gives 1.0
        verdicts = tmp_path / "v.csv"
        verdicts.write_text(f"{header}\n0,0.1,0,0,0.9\n1,0.9,1,1,0.1\n")
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json") == 3
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {verdicts}: {message}"]
        assert list(tmp_path.iterdir()) == [verdicts]

    @pytest.mark.parametrize("content", [
        b'{"train_loss": [0.1',  # truncated JSON
        b"\xff\xfe not utf-8",
        b"[1, 2, 3]",  # valid JSON, not an object
        b'{"epoch_seconds": "fast"}',
        None,  # a directory: unreadable as a file
        # the report copies the config and the epoch times, and JSON has no NaN or Infinity
        b'{"epoch_seconds": [NaN]}',
        b'{"epoch_seconds": [1.0, -Infinity]}',
        b'{"config": {"lr": Infinity}}',
        b'{"train_loss": [0.1], "config": {"window": 10, "nested": [NaN]}}',
    ], ids=["truncated", "not-utf8", "not-an-object", "bad-epoch-seconds", "directory",
            "nan-epoch-time", "infinite-epoch-time", "infinite-config-value", "nested-nan"])
    def test_corrupt_or_unreadable_history_is_a_data_error(self, tmp_path, capsys, content):
        verdicts = tmp_path / "v.csv"
        verdicts.write_text("row_index,score,verdict,label\n0,0.1,0,0\n1,0.9,1,1\n")
        history = tmp_path / "bad.json"
        if content is None:
            history.mkdir()
        else:
            history.write_bytes(content)
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json",
                   "--history", history) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not (tmp_path / "r.json").exists()


    @pytest.mark.parametrize("flag, value", [
        ("--sigma", "nan"), ("--shift", "nan"), ("--shift", "inf"), ("--amplitude", "nan"), ("--period", "nan"),
    ])
    def test_a_nan_or_infinite_synth_flag_is_a_validation_error(self, tmp_path, capsys, flag, value):
        capsys.readouterr()
        assert run("synth", "--benign", 20, "--attack", 5, "--out", tmp_path / "d", f"{flag}={value}") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag[2:]}"), err
        assert not (tmp_path / "d" / "benign.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_nan_or_infinite_learning_rate_is_a_validation_error(self, tmp_path, capsys, value):
        data = tmp_path / "data"
        assert run("synth", "--benign", 40, "--attack", 5, "--out", data, *FAST) == 0
        capsys.readouterr()
        assert run("train", "--input", data / "benign.csv", "--window", 5, "--epochs", 1,
                   "--scaler", write_scaler(tmp_path / "scaler.json"),
                   "--lr", value, "--out", tmp_path / "m.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--lr" in err[0], err
        assert not (tmp_path / "m.json").exists()


def edit_json(src, dst, edit):
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(json.dumps(doc))
    return dst


class TestOutOfRangeArtifacts:
    """A threshold or model file with a value no stage could have written is a
    format error (exit 3); a non-finite training score is a numeric one (exit 4)."""

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(threshold=float("nan")),
        lambda d: d.update(threshold=-1.0),
    ], ids=["nan-threshold", "negative-threshold"])
    def test_detect_refuses_the_threshold_file(self, pipeline_dir, capsys, edit):
        th = edit_json(pipeline_dir / "th.json", pipeline_dir / "th_edited.json", edit)
        out = pipeline_dir / "edited_verdicts.csv"
        capsys.readouterr()
        assert run("detect", "--model", pipeline_dir / "model.json", "--thresholds", th,
                   "--input", pipeline_dir / "prep" / "test.csv", "--out", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {th}: malformed threshold file"), err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["projection"]["bias"].__setitem__(0, float("nan")),
         "malformed model file (non-finite model parameter projection.bias[0])"),
        (lambda d: d["config"].update(units=0), "malformed model file (units must be >= 1, got 0)"),
    ], ids=["nan-bias", "zero-units"])
    def test_calibrate_refuses_the_model_file(self, pipeline_dir, capsys, edit, message):
        model = edit_json(pipeline_dir / "model.json", pipeline_dir / "edited.json", edit)
        out = pipeline_dir / "edited_th.json"
        capsys.readouterr()
        assert run("calibrate", "--model", model, "--scaler", pipeline_dir / "prep" / "scaler.json",
                   "--input", pipeline_dir / "prep" / "train.csv", "--out", out) == 3
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {model}: {message}"]
        assert not out.exists()

    def test_a_count_that_is_not_an_integer_is_refused(self, pipeline_dir, capsys):
        # a fractional window once ended calibrate with a traceback; a fractional batch loaded
        prep = pipeline_dir / "prep"
        cases = [("timesteps", 10.5), ("timesteps", True), ("features", 5.0), ("units", "16"),
                 ("epochs", 1.5), ("batch_size", 2.5), ("seed", 1.5)]
        for key, value in cases:
            model = edit_json(pipeline_dir / "model.json", pipeline_dir / "edited.json",
                              lambda d: d["config"].update({key: value}))
            capsys.readouterr()
            assert run("calibrate", "--model", model, "--scaler", prep / "scaler.json",
                       "--input", prep / "train.csv", "--out", pipeline_dir / "edited_th.json") == 3
            assert run("detect", "--model", model, "--thresholds", pipeline_dir / "th.json",
                       "--input", prep / "test.csv", "--out", pipeline_dir / "edited.csv") == 3
            message = f"error: {model}: malformed model file ({key} must be an integer, got {value!r})"
            assert capsys.readouterr().err.strip().splitlines() == [message, message]
            assert not (pipeline_dir / "edited_th.json").exists()
            assert not (pipeline_dir / "edited.csv").exists()
            assert not (pipeline_dir / "edited.csv.part").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("dropout", False, "dropout must be in [0,1), got False"),
        ("learning_rate", True, "learning_rate (--lr) must be finite and > 0, got True"),
    ])
    def test_a_boolean_rate_is_refused(self, pipeline_dir, capsys, key, value, message):
        # false and true compare as 0 and 1, so they loaded as dropout 0 and learning rate 1
        prep = pipeline_dir / "prep"
        model = edit_json(pipeline_dir / "model.json", pipeline_dir / "edited.json",
                          lambda d: d["config"].update({key: value}))
        capsys.readouterr()
        assert run("calibrate", "--model", model, "--scaler", prep / "scaler.json",
                   "--input", prep / "train.csv", "--out", pipeline_dir / "edited_th.json") == 3
        assert run("detect", "--model", model, "--thresholds", pipeline_dir / "th.json",
                   "--input", prep / "test.csv", "--out", pipeline_dir / "edited.csv") == 3
        line = f"error: {model}: malformed model file ({message})"
        assert capsys.readouterr().err.strip().splitlines() == [line, line]
        assert not (pipeline_dir / "edited_th.json").exists() and not (pipeline_dir / "edited.csv").exists()

    def test_a_json_file_that_is_not_an_object_is_refused(self, pipeline_dir, capsys):
        # valid JSON, but no stage could have written it: one error line, exit 3
        listed = pipeline_dir / "listed.json"
        listed.write_text("[1, 2]\n")
        scaler, prep = pipeline_dir / "prep" / "scaler.json", pipeline_dir / "prep"
        capsys.readouterr()
        assert run("calibrate", "--model", listed, "--scaler", scaler,
                   "--input", prep / "train.csv", "--out", pipeline_dir / "listed_th.json") == 3
        assert run("detect", "--model", pipeline_dir / "model.json", "--thresholds", listed,
                   "--input", prep / "test.csv", "--out", pipeline_dir / "listed.csv") == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {listed}: malformed model file (not a JSON object)",
            f"error: {listed}: malformed threshold file (not a JSON object)",
        ]
        assert not (pipeline_dir / "listed_th.json").exists() and not (pipeline_dir / "listed.csv").exists()

    @pytest.mark.parametrize("bound, index, value", [("min", 0, float("nan")), ("max", 2, float("inf"))])
    def test_a_non_finite_scaler_bound_is_refused(self, pipeline_dir, capsys, bound, index, value):
        # a NaN bound would scale its feature to 0 and calibrate a finite threshold
        prep = pipeline_dir / "prep"
        scaler = edit_json(prep / "scaler.json", pipeline_dir / "scaler_edited.json",
                           lambda d: d[bound].__setitem__(index, value))
        th = edit_json(pipeline_dir / "th.json", pipeline_dir / "th_edited.json",
                       lambda d: d["scaler"][bound].__setitem__(index, value))
        capsys.readouterr()
        assert run("calibrate", "--model", pipeline_dir / "model.json", "--scaler", scaler,
                   "--input", prep / "train.csv", "--out", pipeline_dir / "edited_th.json") == 3
        assert run("detect", "--thresholds", th, "--input", prep / "test.csv",
                   "--out", pipeline_dir / "edited.csv") == 3
        message = f"scaler {bound}[{index}] is not a finite number"
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {scaler}: {message}", f"error: {th}: {message}"]
        assert not (pipeline_dir / "edited_th.json").exists() and not (pipeline_dir / "edited.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the case under test
    def test_calibrate_refuses_an_infinite_maximum_score(self, pipeline_dir, capsys):
        # finite parameters whose reconstruction overflows: every score is infinite
        def huge(d):
            d["projection"]["weight"] = [[1e308] * len(row) for row in d["projection"]["weight"]]
            d["projection"]["bias"] = [1e308] * len(d["projection"]["bias"])

        model = edit_json(pipeline_dir / "model.json", pipeline_dir / "huge.json", huge)
        out = pipeline_dir / "huge_th.json"
        capsys.readouterr()
        assert run("calibrate", "--model", model, "--scaler", pipeline_dir / "prep" / "scaler.json",
                   "--input", pipeline_dir / "prep" / "train.csv", "--out", out) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: the maximum training score is inf, not a finite number"], err
        assert not out.exists()


class TestStreamingStages:
    """calibrate and detect read, score and write their CSVs block by block."""

    @pytest.fixture()
    def scored(self, tmp_path, monkeypatch):
        """An untrained window-10 model calibrated on 100 rows, with small
        blocks and chunks so that a 200-row file takes many of them."""
        monkeypatch.setattr(ingest, "PARSE_BLOCK", 16)
        monkeypatch.setattr(anomaly, "SCORE_CHUNK", 8)
        config = autoencoder.ModelConfig(timesteps=10, features=len(ingest.DEFAULT_FEATURES), seed=2)
        autoencoder.save(autoencoder.build(config), tmp_path / "model.json")
        write_scaler(tmp_path / "scaler.json")
        rng = np.random.default_rng(3)
        ingest.write_csv(tmp_path / "train.csv", rng.uniform(size=(100, 5)), np.zeros(100, dtype=int))
        assert run("calibrate", "--model", tmp_path / "model.json", "--scaler", tmp_path / "scaler.json",
                   "--input", tmp_path / "train.csv", "--out", tmp_path / "th.json") == 0
        ingest.write_csv(tmp_path / "test.csv", rng.uniform(size=(200, 5)), np.zeros(200, dtype=int))
        return tmp_path

    def detect(self, root, source="test.csv"):
        return run("detect", "--thresholds", root / "th.json", "--input", root / source,
                   "--out", root / "verdicts.csv")

    def test_calibrate_equals_the_whole_matrix(self, scored):
        # the threshold is the maximum whole-matrix score, though it was taken in blocks
        th = json.loads((scored / "th.json").read_text())
        weights, _ = autoencoder.load(scored / "model.json")
        scaler = ingest.load_scaler(scored / "scaler.json")
        x = ingest.apply_scaler(ingest.parse_csv(scored / "train.csv").matrix, scaler)
        whole = anomaly.score_matrix(x, weights, WindowConfig(10))
        assert th["threshold"] == float(whole.max())

    def test_a_non_finite_value_mid_stream_leaves_no_verdicts(self, scored, capsys):
        # a scaler whose range overflows scales 1e308 to nan; the row lies
        # blocks after the first, whose verdict rows were already written
        names = ingest.DEFAULT_FEATURES
        wide = ingest.Scaler(np.full(5, -1e308), np.full(5, 1e308), names)
        th = json.loads((scored / "th.json").read_text())
        th["scaler"] = ingest.scaler_to_doc(wide)
        (scored / "th.json").write_text(json.dumps(th))
        x = np.random.default_rng(4).uniform(size=(200, 5))
        x[150, 0] = 1e308
        ingest.write_csv(scored / "bad.csv", x, np.zeros(200, dtype=int))
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert self.detect(scored, "bad.csv") == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert sorted(p.name for p in scored.iterdir()) == [
            "bad.csv", "model.json", "scaler.json", "test.csv", "th.json", "train.csv"]

    def test_a_bad_byte_after_the_first_block_leaves_no_verdicts(self, scored, capsys):
        lines = (scored / "test.csv").read_bytes().splitlines(keepends=True)
        lines[150] = lines[150].replace(b",", b",\xff\xfe", 1)
        (scored / "bad.csv").write_bytes(b"".join(lines))
        capsys.readouterr()
        assert self.detect(scored, "bad.csv") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {scored / 'bad.csv'}: not UTF-8"), err
        assert not (scored / "verdicts.csv").exists()
        assert not list(scored.glob("verdicts.csv*"))

    def test_an_oversized_cell_after_the_first_block_leaves_no_verdicts(self, scored, capsys):
        lines = (scored / "test.csv").read_bytes().splitlines(keepends=True)
        lines[150] = b'"%s",' % (b"x" * 140_000) + lines[150].split(b",", 1)[1]
        (scored / "bad.csv").write_bytes(b"".join(lines))
        capsys.readouterr()
        assert self.detect(scored, "bad.csv") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {scored / 'bad.csv'}: "), err
        assert not list(scored.glob("verdicts.csv*"))

    def test_a_failed_run_keeps_the_earlier_verdicts(self, scored):
        assert self.detect(scored) == 0
        before = (scored / "verdicts.csv").read_bytes()
        ingest.write_csv(scored / "short.csv", np.ones((5, 5)), np.zeros(5, dtype=int))
        assert self.detect(scored, "short.csv") == 3  # fewer rows than the window
        assert (scored / "verdicts.csv").read_bytes() == before
        assert not list(scored.glob("verdicts.csv.*"))

    def test_peaks_do_not_grow_with_the_row_count(self, tmp_path):
        # the whole-matrix stages held about 175 bytes a row at t=10
        config = autoencoder.ModelConfig(timesteps=10, features=5, units=16, seed=2)
        autoencoder.save(autoencoder.build(config), tmp_path / "model.json")
        write_scaler(tmp_path / "scaler.json")
        rng = np.random.default_rng(5)

        def peaks(n):
            path = tmp_path / f"{n}.csv"
            ingest.write_csv(path, rng.uniform(size=(n, 5)), np.zeros(n, dtype=int))
            stages = {
                "calibrate": ["calibrate", "--model", tmp_path / "model.json", "--input", path,
                              "--scaler", tmp_path / "scaler.json", "--out", tmp_path / "th.json"],
                "detect": ["detect", "--thresholds", tmp_path / "th.json", "--input", path,
                           "--out", tmp_path / "verdicts.csv"],
            }
            out = {}
            for stage, argv in stages.items():
                gc.collect()  # whether a stage's argparse garbage is collected before its peak
                tracemalloc.start()  # then depends on this stage alone, not on the tests before it
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    assert run(*argv) == 0
                    out[stage] = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
            return out

        peaks(1_000)  # first use: lazy imports and caches
        small, large = peaks(10_000), peaks(40_000)
        for stage in small:
            assert large[stage] < 1.1 * small[stage], (stage, small, large)

    def test_evaluate_holds_a_few_bytes_a_verdict_row(self, tmp_path):
        # a float64 score and an int8 label a row, then one sort's arrays for the
        # AUC and the ROC; a list of (threshold, fpr, tpr) tuples took 216 bytes a row
        rng = np.random.default_rng(6)

        def peak(n):
            labels = (rng.random(n) < 0.8).astype(int)
            scores = rng.random(n) + 0.5 * labels
            verdicts = tmp_path / f"{n}.csv"
            verdicts.write_text("row_index,score,verdict,label\n" + "".join(
                f"{i},{s!r},{int(s > 1.0)},{y}\n" for i, (s, y) in enumerate(zip(scores.tolist(), labels.tolist()))))
            argv = ["evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json",
                    "--roc-points", tmp_path / "roc.csv"]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert run(*argv) == 0
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak(1_000)  # first use: lazy imports and caches
        small, large = peak(10_000), peak(40_000)
        assert (large - small) / 30_000 <= 64, (small, large)


class TestUnreadableText:
    """A byte that is not UTF-8, or a row the csv module refuses, is a data
    error naming the file, for every reader."""

    @pytest.mark.parametrize("command", ["preprocess", "evaluate", "train", "detect"])
    def test_non_utf8_input_is_one_data_error(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        assert run("synth", "--benign", 40, "--attack", 10, "--out", data, *FAST) == 0
        bad = tmp_path / "bad.csv"
        bad.write_bytes((data / "benign.csv").read_bytes().replace(b"\n", b"\n\xff\xfe", 3))
        argv = {
            "preprocess": ["--benign", bad, "--attacks", data / "attack.csv", "--out", tmp_path / "p"],
            "evaluate": ["--verdicts", bad, "--out", tmp_path / "r.json"],
            "train": ["--input", tmp_path / "train.csv", "--scaler", bad, "--out", tmp_path / "m.json"],
            "detect": ["--thresholds", bad, "--input", data / "benign.csv", "--out", tmp_path / "v.csv"],
        }[command]
        capsys.readouterr()
        assert run(command, *argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0], err

    def test_an_oversized_cell_in_a_flow_csv_is_one_data_error(self, tmp_path, capsys):
        # a quoted cell over the csv module's 131,072-character field limit
        data = tmp_path / "data"
        assert run("synth", "--benign", 4, "--attack", 10, "--out", data, *FAST) == 0
        bad = tmp_path / "bad.csv"
        bad.write_bytes((data / "benign.csv").read_bytes().replace(b"flow-2,", b'"%s",' % (b"x" * 140_000)))
        capsys.readouterr()
        assert run("preprocess", "--benign", bad, "--attacks", data / "attack.csv",
                   "--out", tmp_path / "p") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err

    def test_an_oversized_score_cell_is_one_data_error(self, tmp_path, capsys):
        verdicts = tmp_path / "v.csv"
        verdicts.write_text(f'row_index,score,verdict,label\n0,0.1,0,0\n1,"{"1" * 140_000}",1,1\n')
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {verdicts}: "), err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("row", ["1,0.5,99999999999999999999,1", "1,0.5,1,-99999999999999999999"],
                             ids=["verdict", "label"])
    def test_an_integer_beyond_int64_names_its_line(self, tmp_path, capsys, row):
        verdicts = tmp_path / "v.csv"
        verdicts.write_text(f"row_index,score,verdict,label\n0,0.1,0,0\n{row}\n")
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", tmp_path / "r.json") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {verdicts}, line 3: "), err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Flows, a scaler, a one-epoch window-5 model, its threshold file, its
    history and verdicts: valid inputs beside the one a test breaks."""
    root = tmp_path_factory.mktemp("small_run")
    assert run("synth", "--benign", 60, "--attack", 10, "--seed", 4, "--out", root, *FAST) == 0
    scaler = write_scaler(root / "scaler.json")
    assert run("train", "--input", root / "benign.csv", "--scaler", scaler, "--window", 5, "--epochs", 1,
               "--out", root / "model.json", "--history", root / "history.json") == 0
    assert run("calibrate", "--model", root / "model.json", "--scaler", scaler,
               "--input", root / "benign.csv", "--out", root / "th.json") == 0
    assert run("detect", "--thresholds", root / "th.json", "--input", root / "benign.csv",
               "--out", root / "verdicts.csv") == 0
    return root


# Each JSON input as (the kind its errors name, argv with the input at `bad` and the output at `out`).
JSON_INPUTS = {
    "train-scaler": ("scaler file", lambda r, bad, out: [
        "train", "--input", r / "benign.csv", "--scaler", bad, "--window", 5, "--epochs", 1, "--out", out]),
    "detect-model": ("model file", lambda r, bad, out: [
        "detect", "--model", bad, "--thresholds", r / "th.json", "--input", r / "benign.csv", "--out", out]),
    "detect-thresholds": ("threshold file", lambda r, bad, out: [
        "detect", "--thresholds", bad, "--input", r / "benign.csv", "--out", out]),
    "evaluate-history": ("history file", lambda r, bad, out: [
        "evaluate", "--verdicts", r / "verdicts.csv", "--history", bad, "--out", out]),
    "config": ("config file", lambda r, bad, out: [
        "--config", bad, "evaluate", "--verdicts", r / "verdicts.csv", "--out", out]),
}


class TestJsonInputs:
    """Every JSON input reads the same way: an unreadable file is a data
    error (exit 3); a file that is not JSON, or holds no JSON object, is a
    format error (exit 3), or a validation error for the config (exit 2)."""

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read {kind} {bad}: "),
        (b'{"version": 1,', "{bad}: not valid JSON ("),
        (b"[1, 2]\n", "{bad}: malformed {kind} (not a JSON object)"),
    ], ids=["missing", "not-json", "list"])
    @pytest.mark.parametrize("option", JSON_INPUTS)
    def test_a_bad_json_input_is_one_error_line(self, small_run, tmp_path, capsys, option, content, message):
        kind, argv = JSON_INPUTS[option]
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        if content is not None:
            bad.write_bytes(content)
        capsys.readouterr()
        code = run(*argv(small_run, bad, out))
        assert code == (2 if option == "config" and content is not None else 3)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + message.format(kind=kind, bad=bad)), err
        assert sorted(tmp_path.iterdir()) == ([bad] if content else [])


# Each stage that reads a scaler, as argv with the file holding it at `bad` and the
# output at `out`: train and calibrate read scaler.json, detect th.json's scaler.
SCALER_READERS = {
    "train": lambda r, bad, out: [
        "train", "--input", r / "benign.csv", "--scaler", bad, "--window", 5, "--epochs", 1, "--out", out],
    "calibrate": lambda r, bad, out: [
        "calibrate", "--model", r / "model.json", "--scaler", bad, "--input", r / "benign.csv", "--out", out],
    "detect": lambda r, bad, out: [
        "detect", "--thresholds", bad, "--model", r / "model.json", "--input", r / "benign.csv", "--out", out],
}


class TestScalerLengths:
    """A scaler whose feature names, min and max differ in length is a format
    error naming its file, before any stage reads a column by those names."""

    @pytest.mark.parametrize("cut, message", [
        ("feature_names", "the scaler names 4 feature column(s) but holds 5 min/max pair(s)"),
        ("min", "malformed scaler (ShapeError('scaler min/max must be 1-D vectors of equal length'))"),
    ], ids=["feature-names", "min"])
    @pytest.mark.parametrize("stage", SCALER_READERS)
    def test_a_short_scaler_array_is_refused(self, small_run, tmp_path, capsys, stage, cut, message):
        def edit(doc):
            scaler = doc["scaler"] if stage == "detect" else doc
            scaler[cut] = scaler[cut][:-1]

        bad = edit_json(small_run / ("th.json" if stage == "detect" else "scaler.json"), tmp_path / "bad.json", edit)
        capsys.readouterr()
        assert run(*SCALER_READERS[stage](small_run, bad, tmp_path / "out")) == 3
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {bad}: {message}"]
        assert sorted(tmp_path.iterdir()) == [bad]


class TestStagedOutputs:
    """train and evaluate replace their outputs only once all of them are
    written: a failed run leaves every earlier output as it was."""

    def test_a_failed_history_leaves_the_earlier_model(self, small_run, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("earlier")
        capsys.readouterr()
        assert run("train", "--input", small_run / "benign.csv", "--scaler", small_run / "scaler.json",
                   "--window", 5, "--epochs", 1, "--out", model, "--history", tmp_path / "nodir" / "h.json") == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert model.read_text() == "earlier" and list(tmp_path.iterdir()) == [model]

    def test_failed_roc_points_leave_the_earlier_report(self, small_run, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("earlier")
        verdicts = tmp_path / "v.csv"
        verdicts.write_text("row_index,score,verdict,label\n0,0.1,0,0\n1,0.9,1,1\n")
        capsys.readouterr()
        assert run("evaluate", "--verdicts", verdicts, "--out", report,
                   "--roc-points", tmp_path / "nodir" / "roc.csv") == 3
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert report.read_text() == "earlier" and sorted(tmp_path.iterdir()) == [report, verdicts]


class TestModelReadOnce:
    """calibrate and detect hash the bytes they parse: the model file is read
    once, so one replaced after that read cannot pair its hash with the old
    weights."""

    @pytest.fixture()
    def swapped(self, small_run, tmp_path, monkeypatch):
        """model.json holds model A, and th_b.json is calibrated with model B. The
        first time a stage opens model.json it reads A, and the file is then
        replaced with B, as train's os.replace would replace it."""
        model, b = tmp_path / "model.json", tmp_path / "b.json"
        shutil.copy(small_run / "model.json", model)
        config = autoencoder.ModelConfig(**json.loads(model.read_text())["config"])
        autoencoder.save(autoencoder.build(dataclasses.replace(config, seed=config.seed + 1)), b)
        assert run("calibrate", "--model", b, "--scaler", small_run / "scaler.json",
                   "--input", small_run / "benign.csv", "--out", tmp_path / "th_b.json") == 0
        opened, real_open = [], Path.open

        def open_then_replace(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            if path != model or opened:
                return fh
            with fh:
                opened.append(content := fh.read())
            os.replace(b, model)
            return io.BytesIO(content) if isinstance(content, bytes) else io.StringIO(content)

        monkeypatch.setattr(Path, "open", open_then_replace)
        return tmp_path, opened

    def test_detect_refuses_a_model_replaced_after_its_read(self, small_run, swapped, capsys):
        # the hash was once taken by a second read: of B, which th_b.json names, so A's weights scored
        root, opened = swapped
        capsys.readouterr()
        assert run("detect", "--model", root / "model.json", "--thresholds", root / "th_b.json",
                   "--input", small_run / "benign.csv", "--out", root / "v.csv") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "is not the model" in err[0], err
        assert len(opened) == 1 and not (root / "v.csv").exists()

    def test_calibrate_records_the_hash_of_the_model_it_scored_with(self, small_run, swapped):
        root, opened = swapped
        assert run("calibrate", "--model", root / "model.json", "--scaler", small_run / "scaler.json",
                   "--input", small_run / "benign.csv", "--out", root / "th.json") == 0
        th = json.loads((root / "th.json").read_text())
        assert th["model_sha256"] == hashlib.sha256((small_run / "model.json").read_bytes()).hexdigest()
        assert th["threshold"] == json.loads((small_run / "th.json").read_text())["threshold"]


class TestMadeDirectories:
    """synth and preprocess make their missing --out levels, and a failed run
    removes the levels it made; a directory that was there stays as it was."""

    @pytest.mark.parametrize("existing, out", [(None, "a/b"), ("have", "have/new"), ("have", "have")])
    def test_a_failed_synth_leaves_no_directory_it_made(self, tmp_path, capsys, monkeypatch, existing, out):
        if existing:
            (tmp_path / existing).mkdir()
            (tmp_path / existing / "keep.txt").write_text("kept")
        before, out = sorted(tmp_path.rglob("*")), tmp_path / out

        def fail(config):
            assert out.is_dir()  # the failure comes after the directory is made
            raise errors.NumericError("injected")
            yield

        monkeypatch.setattr(synth, "gen", fail)
        capsys.readouterr()
        assert run("synth", "--benign", 20, "--attack", 5, "--out", out) == 4
        assert capsys.readouterr().err.strip().splitlines() == ["error: injected"]
        assert sorted(tmp_path.rglob("*")) == before

    def test_a_successful_synth_makes_every_missing_level(self, tmp_path):
        assert run("synth", "--benign", 20, "--attack", 5, "--out", tmp_path / "a" / "b") == 0
        assert sorted(p.name for p in (tmp_path / "a" / "b").iterdir()) == ["attack.csv", "benign.csv"]


def refuse(*args, **kwargs):
    pytest.fail("the stage started its work before it checked its outputs")


class TestOutputsCheckedFirst:
    """Every stage creates its staged outputs before its work: an output that
    cannot be written, or two outputs that name one file, fail the stage at
    once, and no output is left new or partial."""

    @pytest.mark.parametrize("stage", ["train", "calibrate", "sweep"])
    def test_an_output_in_a_missing_directory_fails_before_the_work(
        self, small_run, tmp_path, capsys, monkeypatch, stage
    ):
        # these once failed only after all their work, naming the .part file
        monkeypatch.setattr(cli, "_fit", refuse)
        monkeypatch.setattr(cli, "_stream_scores", refuse)
        r, out = small_run, tmp_path / "nodir" / "out"
        argv = {
            "train": ["--input", r / "benign.csv", "--scaler", r / "scaler.json", "--window", 5, "--epochs", 1],
            "calibrate": ["--model", r / "model.json", "--scaler", r / "scaler.json", "--input", r / "benign.csv"],
            "sweep": ["--benign", r / "benign.csv", "--attacks", r / "attack.csv", "--windows", 5,
                      "--batches", 8, "--lrs", 0.01, "--epochs", 1],
        }[stage]
        capsys.readouterr()
        assert run(stage, *argv, "--out", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: cannot write {out}: No such file or directory"], err
        assert list(tmp_path.iterdir()) == []

    def test_synth_whose_second_output_is_a_directory_writes_no_first(self, tmp_path, capsys):
        (tmp_path / "attack.csv").mkdir()
        capsys.readouterr()
        assert run("synth", "--benign", 20, "--attack", 5, "--out", tmp_path) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: cannot write {tmp_path / 'attack.csv'}: Is a directory"], err
        assert list(tmp_path.iterdir()) == [tmp_path / "attack.csv"]

    def test_preprocess_whose_second_output_is_a_directory_writes_no_first(
        self, small_run, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "_split", refuse)
        (tmp_path / "test.csv").mkdir()
        capsys.readouterr()
        assert run("preprocess", "--benign", small_run / "benign.csv", "--attacks", small_run / "attack.csv",
                   "--out", tmp_path) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: cannot write {tmp_path / 'test.csv'}: Is a directory"], err
        assert list(tmp_path.iterdir()) == [tmp_path / "test.csv"]

    def test_train_refuses_one_file_for_the_model_and_the_history(self, small_run, tmp_path, capsys, monkeypatch):
        # this once left the history in model.json, which calibrate then refused
        monkeypatch.setattr(cli, "_fit", refuse)
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run("train", "--input", small_run / "benign.csv", "--scaler", small_run / "scaler.json",
                   "--out", model, "--history", model) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: outputs {model} and {model} name one file"]
        assert list(tmp_path.iterdir()) == []

    def test_evaluate_refuses_one_file_for_the_report_and_the_roc(self, small_run, tmp_path, capsys):
        # this once left the ROC points in the report file
        report, roc = f"{tmp_path}/r.json", f"{tmp_path}/./r.json"
        capsys.readouterr()
        assert run("evaluate", "--verdicts", small_run / "verdicts.csv", "--out", report, "--roc-points", roc) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: outputs {report} and {roc} name one file"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage", ["calibrate", "detect"])
    def test_a_failure_after_the_first_block_leaves_no_output(self, small_run, tmp_path, capsys, monkeypatch, stage):
        data = tmp_path / "data"
        assert run("synth", "--benign", 800, "--attack", 1, "--seed", 4, "--out", data, *FAST) == 0
        lines = (data / "benign.csv").read_bytes().splitlines(keepends=True)
        lines[701] = lines[701].replace(b"flow-700,", b"flow-\xff700,")  # data row 700, in the second block
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"".join(lines))
        blocks, stream = [], cli._stream_scores
        monkeypatch.setattr(cli, "_stream_scores", lambda *a: (blocks.append(s) or s for s in stream(*a)))
        out = tmp_path / {"calibrate": "th.json", "detect": "verdicts.csv"}[stage]
        argv = {
            "calibrate": ["--model", small_run / "model.json", "--scaler", small_run / "scaler.json"],
            "detect": ["--thresholds", small_run / "th.json"],
        }[stage]
        capsys.readouterr()
        assert run(stage, *argv, "--input", bad, "--out", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: not UTF-8 text"), err
        assert blocks and sum(len(scores) for scores, _, _ in blocks) < 700  # it failed after the first block
        assert sorted(tmp_path.iterdir()) == [bad, data]


FLOWS = Path(__file__).parent / "data" / "cicflowmeter_flows.csv"


class TestCicFlowMeterLayout:
    """A hand-written file in the corpus's layout: leading-space headers,
    Infinity and NaN cells, columns no stage reads (one of them, Fwd Header
    Length, named twice), benign and DrDoS_DNS rows."""

    def test_preprocess_skips_exactly_the_non_finite_rows(self, tmp_path, caplog):
        with open(FLOWS, newline="") as fh:
            reader = csv.reader(fh)
            header = [name.strip() for name in next(reader)]
            columns = [header.index(name) for name in ingest.DEFAULT_FEATURES]
            rows = [([float(row[i]) for i in columns], int(row[header.index("Label")] != "BENIGN"))
                    for row in reader]
        finite = sorted(row for row in rows if all(map(math.isfinite, row[0])))
        assert len(rows) - len(finite) == 3  # Infinity and NaN in unread columns do not count
        prep = tmp_path / "prep"
        with caplog.at_level("WARNING"):
            assert run("preprocess", "--benign", FLOWS, "--attacks", FLOWS, "--attack-frac", 1.0, "--out", prep) == 0
        assert caplog.text.count(f"{FLOWS}: skipped 3 malformed row(s)") == 2  # read as benign and as attacks
        written = [ingest.parse_csv(prep / name) for name in ("train.csv", "test.csv")]
        assert sorted((row, label) for ds in written
                      for row, label in zip(ds.matrix.tolist(), ds.labels.tolist())) == finite

    @pytest.mark.parametrize("header, named", [
        (" Average Packet Size, Fwd Header Length,", " Average Packet Size, Max Packet Length,"),
        (" Inbound, Label", " Label, Label"),
    ], ids=["feature", "label"])
    def test_a_wanted_column_named_twice_is_refused(self, tmp_path, capsys, header, named):
        # the last of the two columns was once read, silently
        text = FLOWS.read_text()
        assert text.count(header) == 1
        bad = tmp_path / "flows.csv"
        bad.write_text(text.replace(header, named))
        name = named.split(",")[1].strip()
        capsys.readouterr()
        assert run("preprocess", "--benign", bad, "--attacks", FLOWS, "--out", tmp_path / "prep") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {bad}: column(s) named more than once: {name}"], err
        assert not (tmp_path / "prep").exists()
