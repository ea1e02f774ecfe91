"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see them inline).

Synthetic-process settings used here were confirmed by reference runs; the
detection thresholds and tolerances come from the release checklist and are
not to be loosened.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flowsentry import anomaly, autoencoder, evaluation, ingest, synth
from flowsentry.cli import main as cli_main
from flowsentry.lstm import grad_check
from flowsentry.windowing import WindowConfig, make_windows


def report(number, name, ok, details):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    tic = time.perf_counter()
    config = autoencoder.ModelConfig(seed=1)  # defaults: t=10, m=5, units=16
    weights = autoencoder.build(config)
    rng = np.random.default_rng([1, 2])
    x = rng.uniform(0.0, 1.0, size=(4, config.timesteps, config.features))

    def closure():
        return autoencoder.loss_and_gradients(weights, x, mode="infer")

    result = grad_check(
        closure,
        weights.theta,
        tolerance=1e-5,
        step=1e-5,
        samples=256,
        rng=np.random.default_rng([1, 3]),
    )
    wall = time.perf_counter() - tic
    ok = result.passed and result.checked >= 200 and wall <= 60
    report(
        1,
        "gradient-correctness",
        ok,
        f"max rel err {result.max_rel_error:.3e} <= 1e-5 over "
        f"{result.checked} params, {wall:.1f}s <= 60s",
    )


# ---------------------------------------------------------------------------
# 2. Aggregation oracle
# ---------------------------------------------------------------------------


def brute_force_scores(x, recon, t):
    n, m = x.shape
    w = n - t + 1
    out = np.empty(n)
    for i in range(n):
        per_feature = []
        for j in range(m):
            errs = [
                abs(recon[k][i - k][j] - x[i][j])
                for k in range(w)
                if k <= i <= k + t - 1
            ]
            per_feature.append(sum(errs) / len(errs))
        out[i] = sum(per_feature) / m
    return out


def test_criterion_2_aggregation_oracle():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        t = int(rng.choice([3, 5, 10]))
        n = int(rng.integers(t, 51))
        m = int(rng.integers(1, 6))
        x = rng.uniform(size=(n, m))
        recon = rng.uniform(size=(n - t + 1, t, m))
        fast = anomaly.per_sample_errors(x, recon)
        slow = brute_force_scores(x, recon, t)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    wall = time.perf_counter() - tic
    ok = worst <= 1e-12 and wall <= 10
    report(
        2,
        "aggregation-oracle",
        ok,
        f"max abs dev {worst:.2e} <= 1e-12 over 100 instances, {wall:.1f}s <= 10s",
    )


# ---------------------------------------------------------------------------
# 3. Metric / AUC oracles
# ---------------------------------------------------------------------------


def test_criterion_3_metric_and_auc_oracles():
    tic = time.perf_counter()
    rng = np.random.default_rng(3033)
    worst_auc = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 201))
        verdicts = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = rng.normal(size=n)
        if rng.random() < 0.3:
            scores = np.round(scores, 1)  # force ties

        tp = tn = fp = fn = 0
        for v, y in zip(verdicts, labels):
            tp += v == 1 and y == 1
            tn += v == 0 and y == 0
            fp += v == 1 and y == 0
            fn += v == 0 and y == 1
        counts = evaluation.confusion(verdicts, labels)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (tp, tn, fp, fn)

        r = evaluation.metrics(counts)
        def frac(num, den):
            return float(Fraction(num, den)) if den else 0.0
        assert r.accuracy == frac(tp + tn, n)
        assert r.recall == frac(tp, tp + fn)
        assert r.fpr == frac(fp, fp + tn)
        assert r.precision == frac(tp, tp + fp)

        pairwise = 0.0
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        for p in pos:
            for q in neg:
                pairwise += 1.0 if p > q else (0.5 if p == q else 0.0)
        pairwise /= len(pos) * len(neg)
        worst_auc = max(worst_auc, abs(evaluation.auc_roc(scores, labels) - pairwise))
    wall = time.perf_counter() - tic
    ok = worst_auc <= 1e-12 and wall <= 10
    report(
        3,
        "metric-auc-oracles",
        ok,
        f"counts/metrics exact, max AUC dev {worst_auc:.2e} <= 1e-12, "
        f"{wall:.1f}s <= 10s",
    )


# ---------------------------------------------------------------------------
# 4. Overfit sanity
# ---------------------------------------------------------------------------


def test_criterion_4_overfit_sanity():
    tic = time.perf_counter()
    # low-noise periodic process; targets confirmed by the reference run
    # (MAE ~0.0037, eta ~0.0050). Dropout off: this is a capacity check.
    cfg = synth.SynthConfig(
        n_benign=2000, n_attack=0, sigma=0.002, period=50.0, seed=4
    )
    benign, _ = synth.gen(cfg)
    scaler = ingest.fit_scaler(benign.matrix)
    scaled = ingest.apply_scaler(benign.matrix, scaler)
    window = WindowConfig(10)
    model_config = autoencoder.ModelConfig(
        timesteps=10,
        features=5,
        units=16,
        dropout=0.0,
        epochs=200,
        batch_size=64,
        learning_rate=0.001,
        seed=4,
    )
    weights = autoencoder.build(model_config)
    weights, train_report = autoencoder.train(
        weights, make_windows(scaled, window)
    )
    final_mae = train_report.train_loss[-1]
    eta = anomaly.calibrate(anomaly.score_matrix(scaled, weights, window))
    wall = time.perf_counter() - tic
    ok = final_mae < 0.01 and eta < 0.02 and wall <= 600
    report(
        4,
        "overfit-sanity",
        ok,
        f"train MAE {final_mae:.5f} < 0.01, eta {eta:.5f} < 0.02, "
        f"{wall:.0f}s <= 600s",
    )


# ---------------------------------------------------------------------------
# 5. Synthetic detection
# ---------------------------------------------------------------------------


def _end_to_end(shift, seed=5):
    cfg = synth.SynthConfig(
        n_benign=2000,
        n_attack=500,
        sigma=0.5,
        amplitude=0.5,
        period=300.0,
        shift_sigmas=shift,
        seed=seed,
    )
    benign, attacks = synth.gen(cfg)
    train_ds, held = ingest.split_benign(benign, 0.8, seed)
    scaler = ingest.fit_scaler(train_ds.matrix)
    scaled_train = ingest.apply_scaler(train_ds.matrix, scaler)
    window = WindowConfig(10)
    weights = autoencoder.build(autoencoder.ModelConfig(seed=seed))  # stock defaults
    weights, _ = autoencoder.train(weights, make_windows(scaled_train, window))
    train_scores = anomaly.score_matrix(scaled_train, weights, window)
    eta = anomaly.calibrate(train_scores)
    train_fp = int(anomaly.classify(train_scores, eta).sum())

    test_ds = ingest.assemble_test_set(held, attacks, 1.0, seed)
    scaled_test = ingest.apply_scaler(test_ds.matrix, scaler)
    scores = anomaly.score_matrix(scaled_test, weights, window)
    verdicts = anomaly.classify(scores, eta)
    result = evaluation.metrics(evaluation.confusion(verdicts, test_ds.labels))
    return result, train_fp, test_ds


def test_criterion_5_synthetic_detection():
    tic = time.perf_counter()
    result, train_fp, test_ds = _end_to_end(shift=5.0)
    control, _, _ = _end_to_end(shift=0.0)
    wall = time.perf_counter() - tic
    ok = (
        result.accuracy >= 0.95
        and result.precision >= 0.99
        and train_fp == 0
        and int(np.sum(test_ds.labels == 0)) == 400
        and int(np.sum(test_ds.labels == 1)) == 500
        and control.accuracy <= 0.6
        and wall <= 600
    )
    report(
        5,
        "synthetic-detection",
        ok,
        f"acc {result.accuracy:.4f} >= 0.95, prec {result.precision:.4f} >= 0.99, "
        f"train FP {train_fp} == 0, shift-0 control acc {control.accuracy:.4f} <= 0.6, "
        f"{wall:.0f}s <= 600s",
    )


# ---------------------------------------------------------------------------
# 6. Threshold semantics
# ---------------------------------------------------------------------------


def test_criterion_6_threshold_semantics():
    tic = time.perf_counter()
    rng = np.random.default_rng(6)
    flagged = 0
    for _ in range(300):
        n = int(rng.integers(1, 400))
        scale = 10.0 ** rng.integers(-8, 6)
        scores = rng.uniform(0, scale, size=n)
        if rng.random() < 0.2:
            scores[rng.integers(0, n)] = scores.max()  # duplicated maximum
        eta = anomaly.calibrate(scores)
        flagged += int(anomaly.classify(scores, eta).sum())
    wall = time.perf_counter() - tic
    ok = flagged == 0 and wall <= 1
    report(
        6,
        "threshold-semantics",
        ok,
        f"{flagged} calibration samples flagged over 300 sets, {wall:.2f}s <= 1s",
    )


# ---------------------------------------------------------------------------
# 7. Determinism
# ---------------------------------------------------------------------------


_FAST = ["--sigma", "0.5", "--amplitude", "0.5", "--period", "300"]
PIPELINE = [
    ["synth", "--benign", "400", "--attack", "100", "--seed", "7", "--out", "data", *_FAST],
    ["preprocess", "--benign", "data/benign.csv", "--attacks", "data/attack.csv",
     "--attack-frac", "1.0", "--seed", "7", "--out", "prep"],
    ["train", "--input", "prep/train.csv", "--scaler", "prep/scaler.json", "--epochs", "8",
     "--seed", "7", "--out", "model.json"],
    ["calibrate", "--model", "model.json", "--scaler", "prep/scaler.json",
     "--input", "prep/train.csv", "--out", "th.json"],
    ["detect", "--model", "model.json", "--thresholds", "th.json",
     "--input", "prep/test.csv", "--out", "verdicts.csv"],
    ["evaluate", "--verdicts", "verdicts.csv", "--out", "report.json"],
]
PIPELINE_OUTPUTS = ("model.json", "th.json", "verdicts.csv", "report.json")


def _pipeline_files(root: Path, monkeypatch) -> dict[str, bytes]:
    root.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(root)
    for argv in PIPELINE:
        assert cli_main(argv) == 0
    return {name: (root / name).read_bytes() for name in PIPELINE_OUTPUTS}


def test_criterion_7_determinism(tmp_path, monkeypatch):
    tic = time.perf_counter()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    first = _pipeline_files(tmp_path / "run1", monkeypatch)
    second = _pipeline_files(tmp_path / "run2", monkeypatch)
    wall = time.perf_counter() - tic
    identical = [name for name in first if first[name] == second[name]]
    ok = identical == list(first) and wall <= 600
    report(
        7,
        "determinism",
        ok,
        f"byte-identical: {', '.join(identical) or 'none'}; {wall:.0f}s <= 600s",
    )


_PIPELINE_DRIVER = (
    "import json, sys\n"
    "from flowsentry.cli import main\n"
    "sys.exit(0 if all(main(argv) == 0 for argv in json.loads(sys.argv[1])) else 1)\n"
)


def test_criterion_7_determinism_across_blas_threads(tmp_path):
    # the same pipeline in fresh interpreters whose OpenBLAS runs 1 or 2
    # threads must write the same bytes
    tic = time.perf_counter()
    src = Path(autoencoder.__file__).resolve().parent.parent
    files = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, SOURCE_DATE_EPOCH="1700000000",
                   PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", _PIPELINE_DRIVER, json.dumps(PIPELINE)],
                       cwd=root, env=env, check=True, capture_output=True, timeout=600)
        files[threads] = {name: (root / name).read_bytes() for name in PIPELINE_OUTPUTS}
    wall = time.perf_counter() - tic
    identical = [name for name in PIPELINE_OUTPUTS if files["1"][name] == files["2"][name]]
    ok = identical == list(PIPELINE_OUTPUTS) and wall <= 600
    report(
        7,
        "determinism-across-blas-threads",
        ok,
        f"byte-identical at 1 and 2 threads: {', '.join(identical) or 'none'}; {wall:.0f}s <= 600s",
    )


# ---------------------------------------------------------------------------
# 8. Published-benchmark replication (non-gating; needs the corpus on disk)
# ---------------------------------------------------------------------------

CORPUS = os.environ.get("CICDDOS2019_DIR")


@pytest.mark.skipif(
    not CORPUS, reason="set CICDDOS2019_DIR to the training-day CSVs to enable"
)
def test_criterion_8_cicddos2019_replication():
    def run_attack(csv_name, seed=8):
        path = Path(CORPUS) / csv_name
        ds = ingest.parse_csv(path)
        benign = ingest.Dataset(ds.matrix[ds.labels == 0], ds.labels[ds.labels == 0])
        attacks = ingest.Dataset(ds.matrix[ds.labels == 1], ds.labels[ds.labels == 1])
        train_ds, held = ingest.split_benign(benign, 0.8, seed)
        scaler = ingest.fit_scaler(train_ds.matrix)
        scaled_train = ingest.apply_scaler(train_ds.matrix, scaler)
        window = WindowConfig(10)
        weights = autoencoder.build(autoencoder.ModelConfig(seed=seed))
        weights, _ = autoencoder.train(weights, make_windows(scaled_train, window))
        eta = anomaly.calibrate(anomaly.score_matrix(scaled_train, weights, window))
        test_ds = ingest.assemble_test_set(held, attacks, 0.005, seed)
        scaled_test = ingest.apply_scaler(test_ds.matrix, scaler)
        scores = anomaly.score_matrix(scaled_test, weights, window)
        verdicts = anomaly.classify(scores, eta)
        return evaluation.metrics(evaluation.confusion(verdicts, test_ds.labels))

    dns = run_attack("DrDoS_DNS.csv")
    ldap = run_attack("DrDoS_LDAP.csv")
    ok = (
        abs(dns.accuracy - 0.9608) <= 0.03
        and dns.precision >= 0.99
        and ldap.accuracy >= 0.97
    )
    report(
        8,
        "cicddos2019-replication",
        ok,
        f"DNS acc {dns.accuracy:.4f} (target 0.9608 +/- 0.03), "
        f"DNS prec {dns.precision:.4f} >= 0.99, LDAP acc {ldap.accuracy:.4f} >= 0.97",
    )
