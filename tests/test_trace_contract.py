"""The benchmark's tracer keeps every per-layer metric a number.

perfbench/tracer.py wraps flowsentry's public functions by name, from
outside the package; a function that is renamed or removed turns its
metric into None ("absent"). This test runs a tiny pipeline under the
tracer and fails on any absent metric, so the names the benchmark relies
on cannot silently disappear.
"""

import math
from pathlib import Path

from flowsentry import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FAST = ["--sigma", "0.5", "--amplitude", "0.5", "--period", "300"]


def test_traced_pipeline_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    monkeypatch.chdir(tmp_path)
    t, epochs, window = tracer.Tracer(), 1, 10
    t.install()
    t.begin_pass()
    try:
        for argv in (
            ["synth", "--benign", "300", "--attack", "60", "--seed", "5", "--out", "data", *FAST],
            ["preprocess", "--benign", "data/benign.csv", "--attacks", "data/attack.csv",
             "--attack-frac", "1.0", "--seed", "5", "--out", "prep"],
            ["train", "--input", "prep/train.csv", "--scaler", "prep/scaler.json",
             "--window", str(window), "--epochs", str(epochs), "--seed", "5",
             "--out", "model.json", "--history", "history.json"],
            ["calibrate", "--model", "model.json", "--scaler", "prep/scaler.json",
             "--input", "prep/train.csv", "--out", "th.json"],
            ["detect", "--model", "model.json", "--thresholds", "th.json",
             "--input", "prep/test.csv", "--out", "verdicts.csv"],
            ["evaluate", "--verdicts", "verdicts.csv", "--out", "report.json",
             "--roc-points", "roc.csv", "--history", "history.json"],
        ):
            assert cli.main(argv) == 0, argv
    finally:
        t.uninstall()
    t.end_pass()

    metrics = t.layer_metrics(0)
    absent = sorted(name for name, value in metrics.items() if value is None)
    assert not absent, f"absent per-layer metrics: {absent}"
    # one cell call per timestep per layer: training batches, then one
    # forward pass each for calibrate and detect, whose windows (fewer than
    # 256 each) fit in one scoring chunk of anomaly.SCORE_CHUNK
    train_windows = len((tmp_path / "prep" / "train.csv").read_text().splitlines()) - 1 - window + 1
    batches = math.ceil(train_windows / 64) * epochs
    assert metrics["lstm.cell_calls"] == 2 * window * (batches + 2)
    assert metrics["autoencoder.steps"] == batches
