"""Command-line pipeline: synth | preprocess | train | calibrate | detect |
evaluate | sweep | gradcheck.

Stages hand off through declared files only (CSV/JSON). Each subcommand
takes only the option keys it reads; they resolve as defaults < JSON config
file < flags, and each artifact records the resolved keys of its own stage.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable

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


def _column_names(value) -> list[str]:
    """Column names from a comma-separated string or a list of strings."""
    names = value.split(",") if isinstance(value, str) else value
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise ValueError(f"expected comma-separated names or a list of strings, got {value!r}")
    return [v.strip() for v in names if v.strip()]


# Every option key a stage may read, as (type, default, help). A stage takes a
# key from its flag, else from the --config file, else from this default.
KEYS: dict[str, tuple[Callable, object, str]] = {
    "features": (_column_names, DEFAULT_FEATURES, "comma-separated feature column names"),
    "label_col": (str, "Label", "label column name"),
    "train_frac": (float, 0.8, "share of benign rows used for training"),
    "attack_frac": (float, 0.005, "share of attack rows sampled into the test set"),
    "window": (int, 10, "window length t in records"),
    "units": (int, 16, "LSTM units per layer"),
    "dropout": (float, 0.2, "dropout rate during training"),
    "epochs": (int, 30, "training epochs"),
    "batch": (int, 64, "mini-batch size"),
    "lr": (float, 0.001, "Adam learning rate"),
    "seed": (int, 0, "random seed"),
}


def add_keys(p: argparse.ArgumentParser, *keys: str) -> None:
    """Give a subcommand the flags of `keys`, the only table keys it resolves."""
    for key in keys:
        kind, default, text = KEYS[key]
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                       help=f"{text} (default {default})")
    p.set_defaults(keys=keys)


def _read_config(path: str) -> dict:
    """The table keys in a JSON config file, each converted by its type."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParameterError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: a config file must hold a JSON object")
    config = {}
    for key, value in doc.items():
        if key not in KEYS:
            raise ParameterError(f"{path}: unknown config key {key!r}")
        kind = KEYS[key][0]
        try:  # int() would turn 3.9 into 3 and true into 1
            if isinstance(value, bool) or (kind is int and isinstance(value, float)):
                raise ValueError(f"got {value!r}")
            config[key] = kind(value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{path}: bad value for {key!r}: {exc}") from exc
    return config


def resolve_config(args: argparse.Namespace) -> dict:
    """The subcommand's own keys: defaults < config file < command line."""
    cfg = {key: KEYS[key][1] for key in args.keys}
    if args.config:
        cfg.update((k, v) for k, v in _read_config(args.config).items() if k in cfg)
    cfg.update((k, getattr(args, k)) for k in args.keys if getattr(args, k) is not None)
    return cfg


def _model_config(cfg: dict, features: int) -> autoencoder.ModelConfig:
    return autoencoder.ModelConfig(
        timesteps=cfg["window"],
        features=features,
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
    spec = FeatureSpec(cfg["features"], cfg["label_col"])
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
    spec = FeatureSpec(cfg["features"], cfg["label_col"])
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


def _scaled_matrix(path: str, scaler: ingest.Scaler, cfg: dict) -> np.ndarray:
    """The scaler's feature columns of a CSV, scaled."""
    spec = FeatureSpec(scaler.feature_names, cfg["label_col"])
    ds = ingest.to_dataset(ingest.parse_csv(path, spec))
    if ds.n == 0:
        raise DataError(f"{path}: no usable rows")
    return ingest.apply_scaler(ds.matrix, scaler)


def cmd_train(args: argparse.Namespace, cfg: dict) -> int:
    scaler = ingest.load_scaler(args.scaler)
    scaled = _scaled_matrix(args.input, scaler, cfg)
    windows = make_windows(scaled, WindowConfig(timesteps=cfg["window"]))
    weights = autoencoder.build(_model_config(cfg, features=scaler.m))
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
    scaled = _scaled_matrix(args.input, scaler, cfg)
    window = WindowConfig(timesteps=weights.config.timesteps)
    scores = anomaly.score_matrix(scaled, weights, window)
    threshold = anomaly.calibrate(scores)
    tm = anomaly.ThresholdModel(
        threshold=threshold,
        scaler=scaler,
        window=window,
        # relative to the threshold file, so the pair can move together
        model_path=os.path.relpath(args.model, Path(args.out).parent),
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
    model_path = args.model or Path(args.thresholds).parent / tm.model_path
    weights, model_sha256 = _load_model(model_path)
    if model_sha256 != tm.model_sha256:
        raise DataError(
            f"{model_path} (sha256 {model_sha256[:12]}) is not the model "
            f"{args.thresholds} was calibrated with (sha256 {tm.model_sha256[:12]})"
        )
    spec = FeatureSpec(tm.scaler.feature_names, cfg["label_col"])
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


def _read_history(path: str) -> tuple[dict, list[float]]:
    """The `config` and `epoch_seconds` of a training history file, empty if absent."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read history file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path}: not a valid history JSON file ({exc})") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: a history file must hold a JSON object")
    config, times = doc.get("config", {}), doc.get("epoch_seconds", [])
    if not isinstance(config, dict):
        raise DataError(f"{path}: config must be a JSON object")
    if not isinstance(times, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in times
    ):
        raise DataError(f"{path}: epoch_seconds must be a list of numbers")
    return config, times


def cmd_evaluate(args: argparse.Namespace, cfg: dict) -> int:
    scores, verdicts, labels = _read_verdicts(args.verdicts)
    metadata: dict = {"verdicts": str(args.verdicts)}
    if args.history:
        metadata["config"], times = _read_history(args.history)
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
    weights = autoencoder.build(_model_config(cfg, features=spec.m))
    weights, train_report = autoencoder.train(weights, make_windows(scaled_train, window))
    threshold = anomaly.calibrate(anomaly.score_matrix(scaled_train, weights, window))

    test_ds = ingest.assemble_test_set(held, attacks, cfg["attack_frac"], cfg["seed"])
    scaled_test = ingest.apply_scaler(test_ds.matrix, scaler)
    scores = anomaly.score_matrix(scaled_test, weights, window)
    verdicts = anomaly.classify(scores, threshold)
    metadata = {
        "config": cfg,
        "threshold": threshold,
        "epoch_time_mean": float(np.mean(train_report.epoch_seconds)),
        "epoch_time_std": float(np.std(train_report.epoch_seconds)),
    }
    return _evaluate_arrays(scores, verdicts, test_ds.labels, metadata)


def cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    spec = FeatureSpec(cfg["features"], cfg["label_col"])
    benign = _load_labeled_rows(args.benign, spec, 0, "benign")
    attacks = _load_labeled_rows(args.attacks, spec, 1, "attack")
    reports = []
    for window in args.windows:
        for batch in args.batches:
            for lr in args.lrs:
                cell_cfg = dict(cfg, window=window, batch=batch, lr=lr)
                logger.info("sweep cell: window=%d batch=%d lr=%g", window, batch, lr)
                reports.append(_run_sweep_cell(benign, attacks, spec, cell_cfg))
    evaluation.write_sweep_csv(reports, args.out)
    print(f"sweep: {len(reports)} cell(s) -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace, cfg: dict) -> int:
    config = autoencoder.ModelConfig(
        timesteps=cfg["window"], features=len(cfg["features"]), units=cfg["units"], seed=cfg["seed"]
    )
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


def _list_of(kind: Callable) -> Callable:
    def parse(text: str) -> list:
        values = [kind(v) for v in text.split(",") if v]
        if not values:
            raise ValueError("empty list")
        return values

    parse.__name__ = f"comma-separated {kind.__name__} list"  # argparse's error names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsentry",
        description="Reconstruction-based anomaly detection for DDoS flow traffic.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--config", help="JSON file of option keys; each subcommand applies the keys it takes"
    )
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching, so sweep's --window cannot pass for --windows
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("synth", help="generate synthetic benign/attack CSVs")
    p.add_argument("--benign", type=int, default=2000, help="benign row count")
    p.add_argument("--attack", type=int, default=500, help="attack row count")
    p.add_argument("--shift", type=float, default=5.0, help="attack mean offset in noise sigmas")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--period", type=float, default=50.0)
    p.add_argument("--sigma", type=float, default=0.05)
    p.add_argument("--out", required=True, help="output directory")
    add_keys(p, "features", "label_col", "seed")
    p.set_defaults(func=cmd_synth)

    p = add_parser("preprocess", help="split benign, fit scaler, assemble test set")
    p.add_argument("--benign", required=True, help="benign flow CSV")
    p.add_argument("--attacks", required=True, help="attack flow CSV")
    p.add_argument("--out", required=True, help="output directory")
    add_keys(p, "features", "label_col", "train_frac", "attack_frac", "seed")
    p.set_defaults(func=cmd_preprocess)

    p = add_parser("train", help="train the autoencoder on benign windows")
    p.add_argument("--input", required=True, help="benign training CSV")
    p.add_argument("--scaler", required=True, help="scaler JSON fitted on this training split")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--history", help="optional per-epoch loss/timing JSON")
    add_keys(p, "label_col", "window", "units", "dropout", "epochs", "batch", "lr", "seed")
    p.set_defaults(func=cmd_train)

    p = add_parser("calibrate", help="set the threshold from training scores")
    p.add_argument("--model", required=True)
    p.add_argument("--scaler", required=True)
    p.add_argument("--input", required=True, help="benign training CSV")
    p.add_argument("--out", required=True, help="threshold JSON output path")
    add_keys(p, "label_col")
    p.set_defaults(func=cmd_calibrate)

    p = add_parser("detect", help="score a CSV and emit verdicts")
    p.add_argument("--model", help="model JSON (defaults to the path in the threshold file)")
    p.add_argument("--thresholds", required=True, help="threshold JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="verdicts CSV output path")
    add_keys(p, "label_col")
    p.set_defaults(func=cmd_detect)

    p = add_parser("evaluate", help="metrics from a verdicts CSV")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
    p.add_argument("--roc-points", dest="roc_points", help="optional ROC points CSV")
    p.add_argument("--history", help="training history JSON: its config and epoch timings")
    add_keys(p)
    p.set_defaults(func=cmd_evaluate)

    p = add_parser("sweep", help="cross-product of window/batch/lr cells")
    p.add_argument("--benign", required=True)
    p.add_argument("--attacks", required=True)
    p.add_argument("--windows", type=_list_of(int), default="10,50,100")
    p.add_argument("--batches", type=_list_of(int), default="10,32,64")
    p.add_argument("--lrs", type=_list_of(float), default="0.001,0.0001,0.00001")
    p.add_argument("--out", required=True, help="sweep CSV output path")
    add_keys(p, "features", "label_col", "train_frac", "attack_frac", "units", "dropout",
             "epochs", "seed")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("gradcheck", help="finite-difference check of the gradients")
    p.add_argument("--samples", type=int, default=256, help="parameters to sample (>= 200)")
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--windows", type=int, default=4, help="random windows in the check batch")
    add_keys(p, "features", "window", "units", "seed")
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
