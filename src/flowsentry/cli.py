"""Command-line pipeline: synth | preprocess | train | calibrate | detect |
evaluate | sweep | gradcheck.

Stages hand off through declared files only (CSV/JSON). Options resolve as
defaults < JSON config file < FLOWSENTRY_* environment variables < flags,
and every report embeds the resolved configuration for provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import anomaly, autoencoder, evaluation, ingest, synth
from .errors import (
    EXIT_NUMERIC,
    EXIT_OK,
    DataError,
    FlowSentryError,
    ParameterError,
)
from .ingest import DEFAULT_FEATURES, FeatureSpec
from .lstm import grad_check
from .windowing import WindowConfig, make_windows

logger = logging.getLogger(__name__)

ENV_PREFIX = "FLOWSENTRY_"

DEFAULTS: dict = {
    "features": list(DEFAULT_FEATURES),
    "label_col": "Label",
    "train_frac": 0.8,
    "attack_frac": 0.005,
    "window": 10,
    "units": 16,
    "dropout": 0.2,
    "epochs": 30,
    "batch": 64,
    "lr": 0.001,
    "seed": 0,
}


def _coerce(key: str, value) -> object:
    if key == "features":
        if isinstance(value, str):
            value = [v.strip() for v in value.split(",") if v.strip()]
        return list(value)
    if key == "label_col":
        return str(value)
    if key in ("window", "units", "epochs", "batch", "seed"):
        return int(value)
    return float(value)


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < environment < command line."""
    cfg = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read config file {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{config_path}: not valid JSON ({exc})") from exc
        unknown = set(doc) - set(DEFAULTS)
        if unknown:
            raise ParameterError(
                f"{config_path}: unknown config key(s): {', '.join(sorted(unknown))}"
            )
        for key, value in doc.items():
            cfg[key] = _coerce(key, value)
    for key in DEFAULTS:
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            cfg[key] = _coerce(key, env_value)
    for key in DEFAULTS:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            cfg[key] = _coerce(key, cli_value)
    return cfg


def _feature_spec(cfg: dict) -> FeatureSpec:
    return FeatureSpec(names=tuple(cfg["features"]), label_column=cfg["label_col"])


def _spec_for_scaler(
    cfg: dict, args: argparse.Namespace, scaler: ingest.Scaler
) -> FeatureSpec:
    """Feature columns for scoring: the scaler's own names win unless the
    user asked for something explicitly."""
    if getattr(args, "features", None) is None and scaler.feature_names:
        return FeatureSpec(names=scaler.feature_names, label_column=cfg["label_col"])
    return _feature_spec(cfg)


def _model_config(cfg: dict, features: int | None = None) -> autoencoder.ModelConfig:
    return autoencoder.ModelConfig(
        timesteps=cfg["window"],
        features=len(cfg["features"]) if features is None else features,
        units=cfg["units"],
        dropout=cfg["dropout"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch"],
        learning_rate=cfg["lr"],
        seed=cfg["seed"],
    )


def _load_labeled_rows(path: str, spec: FeatureSpec, want_label: int, side: str) -> ingest.Dataset:
    records = ingest.parse_csv(path, spec)
    kept = [r for r in records if r.label == want_label]
    if len(kept) != len(records):
        logger.warning(
            "%s: ignoring %d row(s) whose label does not belong in the %s set",
            path,
            len(records) - len(kept),
            side,
        )
    return ingest.to_dataset(kept)


def cmd_synth(args: argparse.Namespace, cfg: dict) -> int:
    spec = _feature_spec(cfg)
    config = synth.SynthConfig(
        n_benign=args.benign,
        n_attack=args.attack,
        features=spec.m,
        amplitude=args.amplitude,
        period=args.period,
        sigma=args.sigma,
        shift_sigmas=args.shift,
        seed=cfg["seed"],
    )
    benign_path, attack_path = synth.gen_csv(config, args.out, spec)
    print(f"synth: wrote {config.n_benign} benign rows -> {benign_path}")
    print(f"synth: wrote {config.n_attack} attack rows -> {attack_path}")
    return EXIT_OK


def cmd_preprocess(args: argparse.Namespace, cfg: dict) -> int:
    spec = _feature_spec(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    benign = _load_labeled_rows(args.benign, spec, 0, "benign")
    attacks = _load_labeled_rows(args.attacks, spec, 1, "attack")
    if benign.n == 0:
        raise DataError(f"{args.benign}: no usable benign rows")
    train_ds, held = ingest.split_benign(benign, cfg["train_frac"], cfg["seed"])
    scaler = ingest.fit_scaler(train_ds.matrix, spec.names)
    test_ds = ingest.assemble_test_set(held, attacks, cfg["attack_frac"], cfg["seed"])
    ingest.write_csv(out / "train.csv", train_ds.matrix, train_ds.labels, spec)
    ingest.write_csv(out / "test.csv", test_ds.matrix, test_ds.labels, spec)
    ingest.save_scaler(scaler, out / "scaler.json")
    print(
        f"preprocess: {train_ds.n} train benign, {held.n} held-out benign, "
        f"{int(np.sum(test_ds.labels == 1))} sampled attacks -> {out}"
    )
    return EXIT_OK


def _scaled_matrix(path: str, spec: FeatureSpec, scaler: ingest.Scaler) -> np.ndarray:
    ds = ingest.to_dataset(ingest.parse_csv(path, spec))
    if ds.n == 0:
        raise DataError(f"{path}: no usable rows")
    return ingest.apply_scaler(ds.matrix, scaler)


def cmd_train(args: argparse.Namespace, cfg: dict) -> int:
    scaler = ingest.load_scaler(args.scaler) if args.scaler else None
    spec = _spec_for_scaler(cfg, args, scaler) if scaler else _feature_spec(cfg)
    ds = ingest.to_dataset(ingest.parse_csv(args.input, spec))
    if ds.n == 0:
        raise DataError(f"{args.input}: no usable rows")
    if scaler is None:
        scaler = ingest.fit_scaler(ds.matrix, spec.names)
        logger.info("train: no --scaler given, fitted min-max on the training input")
    scaled = ingest.apply_scaler(ds.matrix, scaler)
    windows = make_windows(scaled, WindowConfig(timesteps=cfg["window"]))
    weights = autoencoder.build(_model_config(cfg, features=spec.m))
    weights, report = autoencoder.train(weights, windows)
    autoencoder.save(weights, args.out)
    if args.history:
        history = {
            "version": 2,
            "config": cfg,
            "train_loss": report.train_loss,
            "epoch_seconds": report.epoch_seconds,
        }
        Path(args.history).write_text(
            json.dumps(history, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    final = report.train_loss[-1] if report.train_loss else float("nan")
    print(f"train: {len(windows)} windows, {cfg['epochs']} epochs, final MAE {final:.6f} -> {args.out}")
    return EXIT_OK


def _load_model(path: str) -> tuple[autoencoder.ModelWeights, str]:
    """The model in `path` and the sha256 of the file's bytes."""
    weights = autoencoder.load(path)
    return weights, hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_calibrate(args: argparse.Namespace, cfg: dict) -> int:
    weights, model_sha256 = _load_model(args.model)
    scaler = ingest.load_scaler(args.scaler)
    spec = _spec_for_scaler(cfg, args, scaler)
    scaled = _scaled_matrix(args.input, spec, scaler)
    window = WindowConfig(timesteps=weights.config.timesteps)
    scores = anomaly.score_matrix(scaled, weights, window)
    threshold = anomaly.calibrate(scores)
    tm = anomaly.ThresholdModel(
        threshold=threshold,
        scaler=scaler,
        window=window,
        model_path=str(args.model),
        model_sha256=model_sha256,
        provenance={
            "training_fingerprint": anomaly.training_fingerprint(scaled),
            "config": cfg,
        },
    )
    anomaly.save_threshold(tm, args.out)
    print(f"calibrate: threshold {threshold!r} over {scores.size} samples -> {args.out}")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace, cfg: dict) -> int:
    tm = anomaly.load_threshold(args.thresholds)
    model_path = args.model or tm.model_path
    weights, model_sha256 = _load_model(model_path)
    if model_sha256 != tm.model_sha256:
        raise DataError(
            f"{model_path} (sha256 {model_sha256[:12]}) is not the model "
            f"{args.thresholds} was calibrated with (sha256 {tm.model_sha256[:12]})"
        )
    spec = _spec_for_scaler(cfg, args, tm.scaler)
    result = anomaly.detect(args.input, tm, weights, spec)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("row_index,score,verdict,label\n")
        for row, score, verdict, label in zip(
            result.rows, result.scores, result.verdicts, result.labels
        ):
            fh.write(f"{row},{float(score)!r},{verdict},{label}\n")
    flagged = int(result.verdicts.sum())
    print(f"detect: {flagged}/{result.verdicts.size} sample(s) flagged -> {args.out}")
    return EXIT_OK


def _read_verdicts(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    import csv as _csv

    scores, verdicts, labels = [], [], []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read verdicts file {path}: {exc}") from exc
    with fh:
        reader = _csv.DictReader(fh)
        required = {"score", "verdict", "label"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"{path}: expected columns row_index,score,verdict,label")
        for row in reader:
            scores.append(float(row["score"]))
            verdicts.append(int(row["verdict"]))
            labels.append(int(row["label"]))
    if not scores:
        raise DataError(f"{path}: no verdict rows")
    return np.array(scores), np.array(verdicts), np.array(labels)


def _evaluate_arrays(
    scores: np.ndarray, verdicts: np.ndarray, labels: np.ndarray, metadata: dict
) -> evaluation.MetricsReport:
    counts = evaluation.confusion(verdicts, labels)
    report = evaluation.metrics(counts)
    if len(set(labels.tolist())) == 2:
        report.auc = evaluation.auc_roc(scores, labels)
    else:
        report.degenerate = report.degenerate + ("auc",)
    report.metadata = metadata
    return report


def _read_epoch_seconds(path: str) -> list[float]:
    """The `epoch_seconds` list of a training history file, empty if absent."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read history file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: not a valid history JSON file ({exc})") from exc
    times = doc.get("epoch_seconds", []) if isinstance(doc, dict) else None
    if not isinstance(times, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in times
    ):
        raise DataError(f"{path}: epoch_seconds must be a list of numbers")
    return times


def cmd_evaluate(args: argparse.Namespace, cfg: dict) -> int:
    scores, verdicts, labels = _read_verdicts(args.verdicts)
    metadata = {"config": cfg, "seed": cfg["seed"], "verdicts": str(args.verdicts)}
    if args.history:
        times = _read_epoch_seconds(args.history)
        if times:
            metadata["epoch_time_mean"] = float(np.mean(times))
            metadata["epoch_time_std"] = float(np.std(times))
    report = _evaluate_arrays(scores, verdicts, labels, metadata)
    evaluation.emit_report(report, args.format, args.out)
    if args.roc_points:
        points = evaluation.roc_points(scores, labels)
        with open(args.roc_points, "w", encoding="utf-8", newline="") as fh:
            fh.write("threshold,fpr,tpr\n")
            for theta, fpr, tpr in points:
                fh.write(f"{theta!r},{fpr!r},{tpr!r}\n")
    auc_text = "n/a" if report.auc is None else f"{report.auc:.4f}"
    print(
        f"evaluate: accuracy {report.accuracy:.4f} precision {report.precision:.4f} "
        f"recall {report.recall:.4f} f1 {report.f1:.4f} auc {auc_text} -> {args.out}"
    )
    return EXIT_OK


def _run_sweep_cell(
    benign: ingest.Dataset, attacks: ingest.Dataset, spec: FeatureSpec, cfg: dict
) -> evaluation.MetricsReport:
    train_ds, held = ingest.split_benign(benign, cfg["train_frac"], cfg["seed"])
    scaler = ingest.fit_scaler(train_ds.matrix, spec.names)
    scaled_train = ingest.apply_scaler(train_ds.matrix, scaler)
    window = WindowConfig(timesteps=cfg["window"])
    weights = autoencoder.build(_model_config(cfg))
    weights, train_report = autoencoder.train(weights, make_windows(scaled_train, window))
    threshold = anomaly.calibrate(anomaly.score_matrix(scaled_train, weights, window))

    test_ds = ingest.assemble_test_set(held, attacks, cfg["attack_frac"], cfg["seed"])
    scaled_test = ingest.apply_scaler(test_ds.matrix, scaler)
    scores = anomaly.score_matrix(scaled_test, weights, window)
    verdicts = anomaly.classify(scores, threshold)
    metadata = {
        "config": cfg,
        "seed": cfg["seed"],
        "window": cfg["window"],
        "batch_size": cfg["batch"],
        "learning_rate": cfg["lr"],
        "threshold": threshold,
        "epoch_time_mean": float(np.mean(train_report.epoch_seconds)),
        "epoch_time_std": float(np.std(train_report.epoch_seconds)),
    }
    return _evaluate_arrays(scores, verdicts, test_ds.labels, metadata)


def cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    spec = _feature_spec(cfg)
    benign = _load_labeled_rows(args.benign, spec, 0, "benign")
    attacks = _load_labeled_rows(args.attacks, spec, 1, "attack")
    windows = [int(v) for v in args.windows.split(",") if v]
    batches = [int(v) for v in args.batches.split(",") if v]
    lrs = [float(v) for v in args.lrs.split(",") if v]
    reports = []
    for window in windows:
        for batch in batches:
            for lr in lrs:
                cell_cfg = dict(cfg, window=window, batch=batch, lr=lr)
                logger.info("sweep cell: window=%d batch=%d lr=%g", window, batch, lr)
                reports.append(_run_sweep_cell(benign, attacks, spec, cell_cfg))
    evaluation.write_sweep_csv(reports, args.out)
    print(f"sweep: {len(reports)} cell(s) -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace, cfg: dict) -> int:
    config = _model_config(cfg)
    weights = autoencoder.build(config)
    rng = np.random.default_rng([cfg["seed"], 2])
    x = rng.uniform(0.0, 1.0, size=(args.windows, config.timesteps, config.features))

    def closure():
        # infer mode keeps dropout off so the loss is deterministic
        return autoencoder.loss_and_gradients(weights, x, mode="infer")

    report = grad_check(
        closure,
        weights.theta,
        tolerance=args.tolerance,
        step=args.step,
        samples=args.samples,
        rng=np.random.default_rng([cfg["seed"], 3]),
    )
    status = "OK" if report.passed else "FAIL"
    worst = weights.locate(report.worst_index) if report.worst_index >= 0 else "none"
    print(
        f"gradcheck: {status} max relative error {report.max_rel_error:.3e} "
        f"(worst {worst}) over {report.checked} sampled parameters, "
        f"tolerance {report.tolerance:g}"
    )
    return EXIT_OK if report.passed else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsentry",
        description="Reconstruction-based anomaly detection for DDoS flow traffic.",
    )
    parser.add_argument("--config", help="JSON config file mirroring the run options")
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--features", help="comma-separated feature column names")
        p.add_argument("--label-col", dest="label_col", help="label column name")
        p.add_argument("--train-frac", dest="train_frac", type=float)
        p.add_argument("--attack-frac", dest="attack_frac", type=float)
        p.add_argument("--window", type=int, help="window length in records")
        p.add_argument("--units", type=int)
        p.add_argument("--dropout", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--seed", type=int)

    p = sub.add_parser("synth", help="generate synthetic benign/attack CSVs")
    p.add_argument("--benign", type=int, default=2000, help="benign row count")
    p.add_argument("--attack", type=int, default=500, help="attack row count")
    p.add_argument("--shift", type=float, default=5.0, help="attack mean offset in noise sigmas")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--period", type=float, default=50.0)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output directory")
    add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="split benign, fit scaler, assemble test set")
    p.add_argument("--benign", required=True, help="benign flow CSV")
    p.add_argument("--attacks", required=True, help="attack flow CSV")
    p.add_argument("--out", required=True, help="output directory")
    add_common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train the autoencoder on benign windows")
    p.add_argument("--input", required=True, help="benign training CSV")
    p.add_argument("--scaler", help="scaler JSON fitted on this training split")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--history", help="optional per-epoch loss/timing JSON")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="set the threshold from training scores")
    p.add_argument("--model", required=True)
    p.add_argument("--scaler", required=True)
    p.add_argument("--input", required=True, help="benign training CSV")
    p.add_argument("--out", required=True, help="threshold JSON output path")
    add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("detect", help="score a CSV and emit verdicts")
    p.add_argument("--model", help="model JSON (defaults to the path in the threshold file)")
    p.add_argument("--thresholds", required=True, help="threshold JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="verdicts CSV output path")
    add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="metrics from a verdicts CSV")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.add_argument("--roc-points", dest="roc_points", help="optional ROC points CSV")
    p.add_argument("--history", help="training history JSON to pull epoch timings from")
    add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="cross-product of window/batch/lr cells")
    p.add_argument("--benign", required=True)
    p.add_argument("--attacks", required=True)
    p.add_argument("--windows", default="10,50,100")
    p.add_argument("--batches", default="10,32,64")
    p.add_argument("--lrs", default="0.001,0.0001,0.00001")
    p.add_argument("--out", required=True, help="sweep CSV output path")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradients")
    p.add_argument("--samples", type=int, default=256, help="parameters to sample (>= 200)")
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--windows", type=int, default=4, help="random windows in the check batch")
    add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = resolve_config(args)
        return args.func(args, cfg)
    except FlowSentryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
