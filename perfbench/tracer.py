"""Span tracer that wraps flowsentry's public functions from outside.

Every public module-level function of the flowsentry modules is replaced,
in every flowsentry module that binds it (including names re-bound by
``from .lstm import ...``), by a wrapper that records a span: name, start,
end, parent span and the pass it belongs to. Spans and counts stay in
memory; ``dump`` writes them out once the run is over. ``uninstall`` puts
the original functions back, so untraced passes run unmodified code.

The per-layer metrics are computed from one traced pass at a time by
``layer_metrics``. A metric whose function no longer exists is reported as
absent (None) instead of failing the run.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

import checks

MODULES = ("ingest", "windowing", "lstm", "autoencoder", "anomaly", "evaluation", "synth", "cli")

# CLI stages whose own (self) time is reported as cli.<stage>.self_s
STAGES = ("preprocess", "train", "calibrate", "detect", "evaluate")


def _shape(x) -> tuple:
    return tuple(getattr(x, "shape", ()))


def _seq_dims(shape: tuple) -> tuple[int, int, int]:
    """(batch, timesteps, features) of a (t, d) or (b, t, d) sequence."""
    return (1, *shape) if len(shape) == 2 else shape


class Tracer:
    """Collects spans and counts while installed; one count table per pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, pass]
        self.counts: list[Counter] = []
        self.score_peaks_mb: list[float] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._parsed: list[tuple[str, int]] = []
        self._score_base = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every flowsentry module in MODULES."""
        pkg = [m for name, m in sys.modules.items() if name == "flowsentry" or name.startswith("flowsentry.")]
        for short in MODULES:
            module = sys.modules[f"flowsentry.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                self.wrapped.add(f"{short}.{attr}")
                for target in pkg:
                    for name, value in list(vars(target).items()):
                        if value is fn:
                            self._patches.append((target, name, fn))
                            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, fn in reversed(self._patches):
            setattr(target, name, fn)
        self._patches.clear()

    def begin_pass(self) -> None:
        self.counts.append(Counter())

    def end_pass(self) -> None:
        """Count rows the parser skipped, from the files it read (outside any span)."""
        counts = self.counts[-1]
        for path, kept in self._parsed:
            counts["ingest.rows_skipped"] += checks.data_rows(path) - kept
        self._parsed.clear()

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name: str, fn):
        key = name.replace(".", "__")
        before = getattr(self, "_before_" + key, None)
        hook = getattr(self, "_hook_" + key, None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.counts) - 1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return wrapper

    def _count(self, key: str, n: float) -> None:
        self.counts[-1][key] += n

    def _hook_ingest__parse_csv(self, rec, args, kwargs, result):
        self._count("ingest.parse_csv.rows", len(result))
        self._parsed.append((str(args[0]), len(result)))

    def _hook_ingest__clean(self, rec, args, kwargs, result):
        self._count("ingest.rows_skipped", len(args[0]) - len(result))

    def _hook_windowing__make_windows(self, rec, args, kwargs, result):
        counts = self.counts[-1]
        counts["windowing.make_windows.mb"] = max(counts["windowing.make_windows.mb"], result.data.nbytes / 1e6)

    def _hook_lstm__lstm_layer_forward(self, rec, args, kwargs, result):
        seq = kwargs.get("seq", args[1] if len(args) > 1 else None)
        sequences = kwargs.get("return_sequences", args[2] if len(args) > 2 else False)
        rec[0] = "lstm.decoder_forward" if sequences else "lstm.encoder_forward"
        b, t, d = _seq_dims(_shape(seq))
        u = _shape(result[0])[-1]
        # four gate GEMMs of (b, u+d) x (u+d, u) per timestep
        self._count("lstm.gflop", 8.0 * b * t * u * (u + d) / 1e9)

    def _hook_lstm__lstm_layer_backward(self, rec, args, kwargs, result):
        d_out = _shape(kwargs.get("d_out", args[2] if len(args) > 2 else None))
        d_x = _shape(result[1])
        rec[0] = "lstm.decoder_backward" if len(d_out) == len(d_x) else "lstm.encoder_backward"
        b, t, d = _seq_dims(d_x)
        u = d_out[-1]
        # weight-gradient and input-gradient GEMMs: twice the forward count
        self._count("lstm.gflop", 16.0 * b * t * u * (u + d) / 1e9)

    def _hook_lstm__dense_forward(self, rec, args, kwargs, result):
        x, y = _shape(args[1]), _shape(result)
        rows = 1
        for n in x[:-1]:
            rows *= n
        self._count("lstm.gflop", 2.0 * rows * x[-1] * y[-1] / 1e9)

    def _hook_lstm__dense_backward(self, rec, args, kwargs, result):
        x, d_out = _shape(args[1]), _shape(args[2])
        rows = 1
        for n in x[:-1]:
            rows *= n
        self._count("lstm.gflop", 4.0 * rows * x[-1] * d_out[-1] / 1e9)

    def _before_anomaly__score_matrix(self):
        if tracemalloc.is_tracing():
            self._score_base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

    def _hook_anomaly__score_matrix(self, rec, args, kwargs, result):
        window = kwargs.get("window", args[2] if len(args) > 2 else None)
        self._count("anomaly.windows_scored", _shape(args[0])[0] - window.timesteps + 1)
        if tracemalloc.is_tracing():
            # peak above the memory already in use when score_matrix was called
            self.score_peaks_mb.append((tracemalloc.get_traced_memory()[1] - self._score_base) / 1e6)

    def _hook_evaluation__roc_points(self, rec, args, kwargs, result):
        scores = kwargs.get("scores", args[0] if args else None)
        self._count("evaluation.roc_points.unique_scores", np.unique(np.asarray(scores, dtype=float)).size)

    # -- reporting ----------------------------------------------------

    def dump(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "pass"],
            "spans": self.spans,
            "counts": [dict(c) for c in self.counts],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    def pass_spans(self, index: int) -> list[list]:
        return [s for s in self.spans if s[4] == index]

    def step_seconds(self, index: int) -> list[float]:
        """Training steps of one pass: loss_and_gradients plus the adam_step after it."""
        last_lag: dict[int, list] = {}
        steps = []
        for s in self.pass_spans(index):
            if s[0] == "autoencoder.loss_and_gradients":
                last_lag[s[3]] = s
            elif s[0] == "lstm.adam_step" and s[3] in last_lag:
                steps.append(s[2] - last_lag.pop(s[3])[1])
        return steps

    def layer_metrics(self, index: int) -> dict[str, float | None]:
        """Per-layer metrics of traced pass `index`; None marks an absent metric."""
        total: Counter = Counter()
        child: Counter = Counter()
        calls: Counter = Counter()
        for s in self.pass_spans(index):
            total[s[0]] += s[2] - s[1]
            calls[s[0]] += 1
            if s[3] >= 0:
                child[self.spans[s[3]][0]] += s[2] - s[1]
        counts = self.counts[index]
        have = self.wrapped.__contains__

        def secs(name, needs=None):
            return total[name] if have(needs or name) else None

        def count(key, needs):
            return counts[key] if have(needs) else None

        out = {
            "ingest.parse_csv.s": secs("ingest.parse_csv"),
            "ingest.parse_csv.rows": count("ingest.parse_csv.rows", "ingest.parse_csv"),
            "ingest.rows_skipped": count("ingest.rows_skipped", "ingest.parse_csv"),
            "ingest.to_dataset.s": secs("ingest.to_dataset"),
            "ingest.write_csv.s": secs("ingest.write_csv"),
            "ingest.apply_scaler.s": secs("ingest.apply_scaler"),
            "windowing.make_windows.s": secs("windowing.make_windows"),
            "windowing.make_windows.mb": count("windowing.make_windows.mb", "windowing.make_windows"),
            "lstm.encoder_forward.s": secs("lstm.encoder_forward", "lstm.lstm_layer_forward"),
            "lstm.decoder_forward.s": secs("lstm.decoder_forward", "lstm.lstm_layer_forward"),
            "lstm.encoder_backward.s": secs("lstm.encoder_backward", "lstm.lstm_layer_backward"),
            "lstm.decoder_backward.s": secs("lstm.decoder_backward", "lstm.lstm_layer_backward"),
            "lstm.dense.s": (
                total["lstm.dense_forward"] + total["lstm.dense_backward"]
                if have("lstm.dense_forward") and have("lstm.dense_backward")
                else None
            ),
            "lstm.adam_step.s": secs("lstm.adam_step"),
            "lstm.cell_calls": calls["lstm.lstm_cell_forward"] if have("lstm.lstm_cell_forward") else None,
            "autoencoder.loss_and_gradients.self_s": (
                total["autoencoder.loss_and_gradients"] - child["autoencoder.loss_and_gradients"]
                if have("autoencoder.loss_and_gradients")
                else None
            ),
            "autoencoder.forward.s": secs("autoencoder.forward"),
            "autoencoder.steps": (
                len(self.step_seconds(index))
                if have("autoencoder.loss_and_gradients") and have("lstm.adam_step")
                else None
            ),
            "autoencoder.save.s": secs("autoencoder.save"),
            "autoencoder.load.s": secs("autoencoder.load"),
            "anomaly.score_matrix.s": secs("anomaly.score_matrix"),
            "anomaly.per_sample_errors.s": secs("anomaly.per_sample_errors"),
            "anomaly.windows_scored": count("anomaly.windows_scored", "anomaly.score_matrix"),
            "evaluation.roc_points.s": secs("evaluation.roc_points"),
            "evaluation.roc_points.unique_scores": count("evaluation.roc_points.unique_scores", "evaluation.roc_points"),
            "evaluation.auc_roc.s": secs("evaluation.auc_roc"),
        }
        kernel = ("lstm.lstm_layer_forward", "lstm.lstm_layer_backward", "lstm.dense_forward", "lstm.dense_backward")
        if all(map(have, kernel)):
            busy = sum(total[n] for n in ("lstm.encoder_forward", "lstm.decoder_forward", "lstm.encoder_backward",
                                          "lstm.decoder_backward", "lstm.dense_forward", "lstm.dense_backward"))
            out["lstm.gflop"] = counts["lstm.gflop"]
            out["lstm.gflop_per_s"] = counts["lstm.gflop"] / busy if busy > 0 else None
        else:
            out["lstm.gflop"] = out["lstm.gflop_per_s"] = None
        for stage in STAGES:
            name = f"cli.cmd_{stage}"
            out[f"cli.{stage}.self_s"] = total[name] - child[name] if have(name) else None
        return out


def summarize(tracer: Tracer, traced_passes: list[int], overhead_frac: float) -> dict[str, float | None]:
    """Median over traced passes of every per-layer metric, plus the step
    percentiles over all their steps and the tracing overhead."""
    per_pass = [tracer.layer_metrics(i) for i in traced_passes]
    out: dict[str, float | None] = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        out[name] = None if any(v is None for v in values) else statistics.median(values)
    steps = sorted(s for i in traced_passes for s in tracer.step_seconds(i))
    have_step = "autoencoder.loss_and_gradients" in tracer.wrapped and "lstm.adam_step" in tracer.wrapped
    out["autoencoder.step.s_p50"] = _percentile(steps, 50) if have_step and steps else None
    out["autoencoder.step.s_p98"] = _percentile(steps, 98) if have_step and steps else None
    out["autoencoder.step.samples"] = len(steps) if have_step else None
    out["anomaly.score_matrix.peak_mb"] = max(tracer.score_peaks_mb) if tracer.score_peaks_mb else None
    out["trace.overhead_frac"] = overhead_frac
    return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
