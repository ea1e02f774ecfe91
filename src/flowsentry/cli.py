"""Command-line pipeline: synth | preprocess | train | calibrate | detect |
evaluate | sweep | gradcheck.

Stages hand off through declared files only (CSV/JSON). Each subcommand
takes only the option keys it reads; they resolve as defaults < JSON config
file < flags, and each artifact records the resolved keys of its own stage.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import logging
import os
import sys
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import anomaly, autoencoder, evaluation, ingest, synth
from .errors import EXIT_NUMERIC, EXIT_OK, DataError, FlowSentryError, ParameterError
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
    config = {}
    for key, value in ingest.read_json(path, "config file", ParameterError).items():
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


def _load_labeled_rows(path: str, spec: FeatureSpec, want_label: int, side: str) -> ingest.Dataset:
    ds = ingest.parse_csv(path, spec)
    keep = ds.labels == want_label
    if not keep.all():
        logger.warning("%s: ignoring %d row(s) whose label does not belong in the %s set",
                       path, len(ds) - int(keep.sum()), side)
        ds = ingest.Dataset(ds.matrix[keep], ds.labels[keep], ds.rows[keep])
    if want_label == 0 and not len(ds):
        raise DataError(f"{path}: no usable benign rows")
    return ds


# The pipeline core: one array-in/array-out function per step. The stage
# commands only read and write the files around them; sweep chains them in memory.
# calibrate and detect score their file block by block (_stream_scores) with the
# anomaly.score_matrix that sweep runs on its whole matrices.


def _split(
    benign: ingest.Dataset, attacks: ingest.Dataset, names: tuple[str, ...], cfg: dict
) -> tuple[ingest.Dataset, ingest.Dataset, ingest.Scaler]:
    """The benign training split, the test set (held-out benign rows plus
    sampled attacks) and the scaler fitted on the training split."""
    train, held = ingest.split_benign(benign, cfg["train_frac"], cfg["seed"])
    scaler = ingest.fit_scaler(train.matrix, names)
    return train, ingest.assemble_test_set(held, attacks, cfg["attack_frac"], cfg["seed"]), scaler


def _read_scaled(path: str, scaler: ingest.Scaler, label_col: str) -> np.ndarray:
    """The scaler's feature columns of a flow CSV, scaled."""
    ds = ingest.parse_csv(path, FeatureSpec(scaler.feature_names, label_col))
    if not len(ds):
        raise DataError(f"{path}: no usable rows")
    return ingest.apply_scaler(ds.matrix, scaler)


def _stream_scores(
    path: str, scaler: ingest.Scaler, label_col: str, weights: autoencoder.ModelWeights
) -> Iterator[tuple[np.ndarray, ...]]:
    """Score a flow CSV block by block, in memory that does not grow with its
    rows: yields the scores, labels and source row indices of the rows each
    block finished (see anomaly.score_matrix)."""
    window = WindowConfig(timesteps=weights.config.timesteps)
    end = ingest.Dataset(np.empty((0, scaler.m)), np.empty(0, dtype=int), np.empty(0, dtype=int))
    carry, labels, rows = anomaly.Carry(), end.labels, end.rows
    blocks = ingest.read_blocks(path, FeatureSpec(scaler.feature_names, label_col))
    # an empty last block flushes the carry, so no block is parsed ahead
    for ds in itertools.chain(blocks, [end]):
        if ds is end and not carry.done + len(rows):
            break
        scaled = ingest.apply_scaler(ds.matrix, scaler)
        labels, rows = np.concatenate([labels, ds.labels]), np.concatenate([rows, ds.rows])
        last, ds = ds is end, None  # the parsed block is not held through the forward pass
        scores = anomaly.score_matrix(scaled, weights, window, carry, last)
        k = len(scores)
        yield scores, labels[:k], rows[:k]
        del scaled, scores  # not held while the next block is parsed and scored
        labels, rows = labels[k:].copy(), rows[k:].copy()
    if not carry.done:
        raise DataError(f"{path}: no usable rows")


def _fit(scaled: np.ndarray, cfg: dict) -> tuple[autoencoder.ModelWeights, autoencoder.TrainReport]:
    """A model built from the train keys and trained on the scaled benign windows."""
    windows = make_windows(scaled, WindowConfig(timesteps=cfg["window"]))
    config = autoencoder.ModelConfig(
        timesteps=cfg["window"],
        features=scaled.shape[1],
        units=cfg["units"],
        dropout=cfg["dropout"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch"],
        learning_rate=cfg["lr"],
        seed=cfg["seed"],
    )
    return autoencoder.train(autoencoder.build(config), windows)


def _evaluate_arrays(
    scores: np.ndarray, counts: evaluation.ConfusionCounts, labels: np.ndarray, metadata: dict, roc=()
) -> evaluation.MetricsReport:
    report = evaluation.metrics(counts)
    if counts.tp + counts.fn and counts.tn + counts.fp:  # both classes
        report.auc = evaluation.auc_roc(scores, labels, roc)
    else:
        report.degenerate = report.degenerate + ("auc",)
    report.metadata = metadata
    return report


def _epoch_timing(seconds: list[float]) -> dict:
    """Mean and std of the epoch wall times; nothing when no epoch ran."""
    if not seconds:
        return {}
    return {"epoch_time_mean": float(np.mean(seconds)), "epoch_time_std": float(np.std(seconds))}


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
    train, test, scaler = _split(benign, attacks, spec.names, cfg)
    ingest.write_csv(out / "train.csv", train.matrix, train.labels, spec)
    ingest.write_csv(out / "test.csv", test.matrix, test.labels, spec)
    ingest.save_scaler(scaler, out / "scaler.json")
    sampled = int(np.sum(test.labels == 1))
    print(
        f"preprocess: {train.n} train benign, {test.n - sampled} held-out benign, "
        f"{sampled} sampled attacks -> {out}"
    )
    return EXIT_OK


def cmd_train(args: argparse.Namespace, cfg: dict) -> int:
    scaled = _read_scaled(args.input, ingest.load_scaler(args.scaler), cfg["label_col"])
    weights, report = _fit(scaled, cfg)
    with ingest.staged(args.out, args.history) as (out, history):
        autoencoder.save(weights, out)
        if history:
            doc = {"version": 2, "config": cfg, "train_loss": report.train_loss,
                   "epoch_seconds": report.epoch_seconds}
            Path(history).write_text(ingest.json_text(doc), encoding="utf-8")
    final = report.train_loss[-1] if report.train_loss else float("nan")
    windows = len(scaled) - cfg["window"] + 1
    print(f"train: {windows} windows, {cfg['epochs']} epochs, final MAE {final:.6f} -> {args.out}")
    return EXIT_OK


def _load_model(path: str) -> tuple[autoencoder.ModelWeights, str]:
    """The model in `path` and the sha256 of the file's bytes."""
    weights = autoencoder.load(path)
    return weights, hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_calibrate(args: argparse.Namespace, cfg: dict) -> int:
    weights, model_sha256 = _load_model(args.model)
    scaler = ingest.load_scaler(args.scaler)
    # block by block: the maximum score (anomaly.calibrate takes the threshold
    # from these) and the row count
    maxima, samples = [], 0
    for scores, _, _ in _stream_scores(args.input, scaler, cfg["label_col"], weights):
        maxima.append(scores.max(initial=-np.inf))
        samples += len(scores)
        del scores  # not held while the next block is parsed and scored
    tm = anomaly.ThresholdModel(
        threshold=anomaly.calibrate(np.array(maxima)),
        scaler=scaler,
        # relative to the threshold file, so the pair can move together
        model_path=os.path.relpath(args.model, Path(args.out).parent),
        model_sha256=model_sha256,
        provenance={"config": cfg},
    )
    anomaly.save_threshold(tm, args.out)
    print(f"calibrate: threshold {tm.threshold!r} over {samples} samples -> {args.out}")
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
    # written block by block, staged so that a failed run leaves no partial verdicts
    flagged = samples = 0
    with ingest.staged(args.out) as (part,), open(part, "w", encoding="utf-8", newline="") as fh:
        fh.write("row_index,score,verdict,label\n")
        for scores, labels, rows in _stream_scores(args.input, tm.scaler, cfg["label_col"], weights):
            verdicts = anomaly.classify(scores, tm.threshold)
            ingest.write_rows(fh, "%d,%r,%d,%d\n", (rows, scores, verdicts, labels))
            flagged, samples = flagged + int(verdicts.sum()), samples + len(verdicts)
            del scores, labels, rows, verdicts  # as in calibrate
    print(f"detect: {flagged}/{samples} sample(s) flagged -> {args.out}")
    return EXIT_OK


def _read_verdicts(path: str, size: int = ingest.PARSE_BLOCK) -> tuple[np.ndarray, np.ndarray, Counter]:
    """The score and label columns, in arrays sized from a line count, and the
    count of each (verdict, label) pair, read `size` lines at a time by
    `ingest.plain_columns`. A block it refuses sends the file to the csv module
    one row at a time, so that the error names the line of its first bad row."""
    with ingest.open_text(path) as fh:
        lines = sum(1 for _ in fh)
    scores, labels, pairs, n = np.empty(lines), np.empty(lines, dtype=np.int8), Counter(), 0
    with ingest.open_text(path) as fh:
        reader = csv.reader(fh)
        header = {name: i for i, name in enumerate(next(reader, []))}
        if not header.keys() >= {"score", "verdict", "label"}:
            raise DataError(f"{path}: expected columns row_index,score,verdict,label")
        columns = [header["score"], header["verdict"], header["label"]]
        while block := list(itertools.islice(fh if size > 1 else reader, size)):
            try:
                if size > 1:
                    score, verdict, label = ingest.plain_columns(block, columns, "f8,i8,i8")
                else:
                    rows = list(filter(None, block))
                    score, verdict, label = [np.array(list(map(kind, map(itemgetter(i), rows))), dtype=kind)
                                             for kind, i in zip((float, int, int), columns)]
            except (IndexError, ValueError, OverflowError) as exc:  # Overflow: beyond int64
                if size > 1:
                    return _read_verdicts(path, 1)
                cells = [rows[0][i] if i < len(rows[0]) else None for i in columns]
                raise DataError(f"{path}, line {reader.line_num}: score, verdict and label "
                                f"must be numbers, got {cells}") from exc
            if not np.isfinite(score).all():
                if size > 1:
                    return _read_verdicts(path, 1)
                raise DataError(f"{path}, line {reader.line_num}: non-finite score {score[0]}")
            # a label beyond int8 wraps here, but confusion() refuses it from the pairs first
            scores[n : n + len(score)], labels[n : n + len(score)] = score, label
            n += len(score)
            pairs.update(zip(verdict.tolist(), label.tolist()))
    if not n:
        raise DataError(f"{path}: no verdict rows")
    for column in (scores, labels):  # in place: a shrinking realloc keeps one copy
        column.resize(n, refcheck=False)
    return scores, labels, pairs


def _read_history(path: str) -> tuple[dict, list[float]]:
    """The `config` and `epoch_seconds` of a training history file, empty if absent."""
    doc = ingest.read_json(path, "history file", DataError)
    config, times = doc.get("config", {}), doc.get("epoch_seconds", [])
    if not isinstance(config, dict):
        raise DataError(f"{path}: config must be a JSON object")
    if not isinstance(times, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in times
    ):
        raise DataError(f"{path}: epoch_seconds must be a list of numbers")
    return config, times


def cmd_evaluate(args: argparse.Namespace, cfg: dict) -> int:
    scores, labels, pairs = _read_verdicts(args.verdicts)
    metadata: dict = {"verdicts": str(args.verdicts)}
    if args.history:
        metadata["config"], times = _read_history(args.history)
        metadata.update(_epoch_timing(times))
    counts = evaluation.confusion(*zip(*pairs), list(pairs.values()))
    # one sort for the AUC and the ROC, before any file is written: one class raises
    roc = evaluation._roc_counts(scores, labels, "ROC") if args.roc_points else ()
    report = _evaluate_arrays(scores, counts, labels, metadata, roc)
    points = evaluation.roc_points(scores, labels, roc) if roc else ()
    del roc  # the counts are not held while the files are written
    with ingest.staged(args.out, args.roc_points) as (out, roc_path):
        evaluation.emit_report(report, args.format, out)
        if roc_path:
            with open(roc_path, "w", encoding="utf-8", newline="") as fh:
                fh.write("threshold,fpr,tpr\n")
                ingest.write_rows(fh, "%r,%r,%r\n", points)
    auc_text = "n/a" if report.auc is None else f"{report.auc:.4f}"
    print(
        f"evaluate: accuracy {report.accuracy:.4f} precision {report.precision:.4f} "
        f"recall {report.recall:.4f} f1 {report.f1:.4f} auc {auc_text} -> {args.out}"
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    spec = FeatureSpec(cfg["features"], cfg["label_col"])
    benign = _load_labeled_rows(args.benign, spec, 0, "benign")
    attacks = _load_labeled_rows(args.attacks, spec, 1, "attack")
    train, test, scaler = _split(benign, attacks, spec.names, cfg)
    scaled_train = ingest.apply_scaler(train.matrix, scaler)
    scaled_test = ingest.apply_scaler(test.matrix, scaler)
    reports = []
    for window, batch, lr in itertools.product(args.windows, args.batches, args.lrs):
        cell = dict(cfg, window=window, batch=batch, lr=lr)
        logger.info("sweep cell: window=%d batch=%d lr=%g", window, batch, lr)
        weights, fit = _fit(scaled_train, cell)
        # the staged calibrate and detect, each on its whole matrix as one block
        train_scores = anomaly.score_matrix(scaled_train, weights, WindowConfig(window))
        threshold = anomaly.calibrate(train_scores)
        scores = anomaly.score_matrix(scaled_test, weights, WindowConfig(window))
        counts = evaluation.confusion(anomaly.classify(scores, threshold), test.labels)
        metadata = {"config": cell, "threshold": threshold, **_epoch_timing(fit.epoch_seconds)}
        reports.append(_evaluate_arrays(scores, counts, test.labels, metadata))
    evaluation.write_sweep_csv(reports, args.out)
    print(f"sweep: {len(reports)} cell(s) -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace, cfg: dict) -> int:
    for flag in ("step", "tolerance", "windows", "samples"):
        if not getattr(args, flag) > 0:  # written so that a NaN fails too
            raise ParameterError(f"--{flag} must be > 0, got {getattr(args, flag)}")
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
    p.add_argument("--samples", type=int, default=256, help="parameters to sample (>= 1)")
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
